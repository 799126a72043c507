package pace

import (
	"fmt"
	"strings"
)

// Expr is a node in a PSL expression tree.
type Expr interface {
	// String renders the expression as PSL source.
	String() string
	eval(env *Env) (Value, error)
	// nesting is how many levels the String form nests: parentheses,
	// brackets, call argument lists and unary operators, each a level of
	// recursion for the parser that reads it back. The parser records it
	// on every composite node as it builds the node.
	nesting() int
}

// Value is a PSL runtime value: a number or an array of values.
type Value struct {
	Num float64
	Arr []Value // non-nil means array
}

// IsArray reports whether v holds an array.
func (v Value) IsArray() bool { return v.Arr != nil }

// NumValue wraps a float64.
func NumValue(f float64) Value { return Value{Num: f} }

func (v Value) String() string {
	if !v.IsArray() {
		return trimFloat(v.Num)
	}
	parts := make([]string, len(v.Arr))
	for i, e := range v.Arr {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Val  float64
	Line int
	Col  int
}

func (n *NumberLit) String() string { return trimFloat(n.Val) }
func (*NumberLit) nesting() int     { return 0 }

// Ident references a parameter or let-binding.
type Ident struct {
	Name string
	Line int
	Col  int
}

func (id *Ident) String() string { return id.Name }
func (*Ident) nesting() int      { return 0 }

// ArrayLit is an array literal such as [50, 40, 30].
type ArrayLit struct {
	Elems []Expr
	Line  int
	Col   int
	nest  int // see Expr.nesting
}

func (a *ArrayLit) nesting() int { return a.nest }

func (a *ArrayLit) String() string {
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// IndexExpr selects an element of an array; indices are zero-based.
type IndexExpr struct {
	Base  Expr
	Index Expr
	Line  int
	Col   int
	nest  int // see Expr.nesting
}

func (ix *IndexExpr) nesting() int { return ix.nest }

func (ix *IndexExpr) String() string {
	if _, ok := ix.Base.(*UnaryExpr); ok {
		// -x[i] would read back as -(x[i]).
		return fmt.Sprintf("(%s)[%s]", ix.Base, ix.Index)
	}
	return fmt.Sprintf("%s[%s]", ix.Base, ix.Index)
}

// UnaryExpr is negation or logical not.
type UnaryExpr struct {
	Op   string // "-" or "!"
	X    Expr
	Line int
	Col  int
	nest int // see Expr.nesting
}

func (u *UnaryExpr) nesting() int { return u.nest }

func (u *UnaryExpr) String() string { return u.Op + u.X.String() }

// BinaryExpr is an infix arithmetic, comparison or logical expression.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
	Col  int
	nest int // see Expr.nesting
}

func (b *BinaryExpr) nesting() int { return b.nest }

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// CallExpr invokes a builtin function such as min, ceil or if.
type CallExpr struct {
	Fn   string
	Args []Expr
	Line int
	Col  int
	nest int // see Expr.nesting
}

func (c *CallExpr) nesting() int { return c.nest }

func (c *CallExpr) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// deepest is the largest nesting among es.
func deepest(es []Expr) int {
	d := 0
	for _, e := range es {
		d = max(d, e.nesting())
	}
	return d
}

// ParamDecl declares a model parameter, optionally with a default value.
type ParamDecl struct {
	Name    string
	Default Expr // nil when the parameter is required
}

// LetDecl binds a name to an expression; lets evaluate in declaration
// order and may reference params and earlier lets.
type LetDecl struct {
	Name string
	Expr Expr
}

// AppModel is a parsed PSL application model: the σ_j of the paper. Its
// Time expression yields the predicted execution time in seconds on the
// reference platform for a given parameter binding (the processor count n,
// at minimum).
type AppModel struct {
	Name       string
	Params     []ParamDecl
	Lets       []LetDecl
	Time       Expr    // predicted seconds on the reference platform
	DeadlineLo float64 // Table 1 requirement domain lower bound (seconds)
	DeadlineHi float64 // Table 1 requirement domain upper bound (seconds)
	Source     string  // original PSL text

	// slot is the model's position in the library it was added to: a small
	// dense index the evaluation engine uses to find the model's table row
	// without hashing its name (0 for a model in no library — still a
	// valid hint, since the engine confirms every hint by name).
	slot int
}

// HasDeadlineDomain reports whether the model declared a deadline domain.
func (m *AppModel) HasDeadlineDomain() bool {
	return m.DeadlineLo != 0 || m.DeadlineHi != 0
}

func (m *AppModel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "application %s {\n", m.Name)
	for _, p := range m.Params {
		if p.Default != nil {
			fmt.Fprintf(&b, "  param %s = %s;\n", p.Name, p.Default)
		} else {
			fmt.Fprintf(&b, "  param %s;\n", p.Name)
		}
	}
	if m.HasDeadlineDomain() {
		fmt.Fprintf(&b, "  deadline = [%s, %s];\n", trimFloat(m.DeadlineLo), trimFloat(m.DeadlineHi))
	}
	for _, l := range m.Lets {
		fmt.Fprintf(&b, "  let %s = %s;\n", l.Name, l.Expr)
	}
	if m.Time != nil {
		fmt.Fprintf(&b, "  time = %s;\n", m.Time)
	}
	b.WriteString("}")
	return b.String()
}
