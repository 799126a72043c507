package pace

import (
	"fmt"
	"math"
)

// Env holds name bindings during expression evaluation. Lookups fall
// through to the parent environment.
type Env struct {
	vars   map[string]Value
	parent *Env
}

// NewEnv returns an environment with the given parent (which may be nil).
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]Value{}, parent: parent}
}

// Bind sets name to v in this environment.
func (e *Env) Bind(name string, v Value) { e.vars[name] = v }

// Lookup resolves name, searching parents.
func (e *Env) Lookup(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

func (n *NumberLit) eval(*Env) (Value, error) { return NumValue(n.Val), nil }

func (id *Ident) eval(env *Env) (Value, error) {
	if v, ok := env.Lookup(id.Name); ok {
		return v, nil
	}
	return Value{}, errAt(id.Line, id.Col, "undefined name %q", id.Name)
}

func (a *ArrayLit) eval(env *Env) (Value, error) {
	elems := make([]Value, len(a.Elems))
	for i, e := range a.Elems {
		v, err := e.eval(env)
		if err != nil {
			return Value{}, err
		}
		elems[i] = v
	}
	if elems == nil {
		elems = []Value{}
	}
	return Value{Arr: elems}, nil
}

func (ix *IndexExpr) eval(env *Env) (Value, error) {
	base, err := ix.Base.eval(env)
	if err != nil {
		return Value{}, err
	}
	if !base.IsArray() {
		return Value{}, errAt(ix.Line, ix.Col, "cannot index a number")
	}
	idxV, err := ix.Index.eval(env)
	if err != nil {
		return Value{}, err
	}
	if idxV.IsArray() {
		return Value{}, errAt(ix.Line, ix.Col, "array index must be a number")
	}
	i := int(math.Round(idxV.Num))
	if math.Abs(idxV.Num-float64(i)) > 1e-9 {
		return Value{}, errAt(ix.Line, ix.Col, "array index %g is not an integer", idxV.Num)
	}
	if i < 0 || i >= len(base.Arr) {
		return Value{}, errAt(ix.Line, ix.Col, "array index %d out of range [0, %d)", i, len(base.Arr))
	}
	return base.Arr[i], nil
}

func (u *UnaryExpr) eval(env *Env) (Value, error) {
	v, err := u.X.eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsArray() {
		return Value{}, errAt(u.Line, u.Col, "operator %q requires a number", u.Op)
	}
	switch u.Op {
	case "-":
		return NumValue(-v.Num), nil
	case "!":
		return boolValue(v.Num == 0), nil
	}
	return Value{}, errAt(u.Line, u.Col, "unknown unary operator %q", u.Op)
}

func boolValue(b bool) Value {
	if b {
		return NumValue(1)
	}
	return NumValue(0)
}

func (b *BinaryExpr) eval(env *Env) (Value, error) {
	l, err := b.L.eval(env)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logical operators.
	switch b.Op {
	case "&&":
		if l.IsArray() {
			return Value{}, errAt(b.Line, b.Col, "operator && requires numbers")
		}
		if l.Num == 0 {
			return NumValue(0), nil
		}
		r, err := b.R.eval(env)
		if err != nil {
			return Value{}, err
		}
		if r.IsArray() {
			return Value{}, errAt(b.Line, b.Col, "operator && requires numbers")
		}
		return boolValue(r.Num != 0), nil
	case "||":
		if l.IsArray() {
			return Value{}, errAt(b.Line, b.Col, "operator || requires numbers")
		}
		if l.Num != 0 {
			return NumValue(1), nil
		}
		r, err := b.R.eval(env)
		if err != nil {
			return Value{}, err
		}
		if r.IsArray() {
			return Value{}, errAt(b.Line, b.Col, "operator || requires numbers")
		}
		return boolValue(r.Num != 0), nil
	}

	r, err := b.R.eval(env)
	if err != nil {
		return Value{}, err
	}
	if l.IsArray() || r.IsArray() {
		return Value{}, errAt(b.Line, b.Col, "operator %q requires numbers", b.Op)
	}
	x, y := l.Num, r.Num
	switch b.Op {
	case "+":
		return NumValue(x + y), nil
	case "-":
		return NumValue(x - y), nil
	case "*":
		return NumValue(x * y), nil
	case "/":
		if y == 0 {
			return Value{}, errAt(b.Line, b.Col, "division by zero")
		}
		return NumValue(x / y), nil
	case "%":
		if y == 0 {
			return Value{}, errAt(b.Line, b.Col, "modulo by zero")
		}
		return NumValue(math.Mod(x, y)), nil
	case "==":
		return boolValue(x == y), nil
	case "!=":
		return boolValue(x != y), nil
	case "<":
		return boolValue(x < y), nil
	case "<=":
		return boolValue(x <= y), nil
	case ">":
		return boolValue(x > y), nil
	case ">=":
		return boolValue(x >= y), nil
	}
	return Value{}, errAt(b.Line, b.Col, "unknown operator %q", b.Op)
}

// builtin implements a PSL intrinsic function.
type builtin struct {
	minArgs int
	maxArgs int // -1 means variadic
	apply   func(c *CallExpr, args []Value) (Value, error)
}

func numericArgs(c *CallExpr, args []Value) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		if a.IsArray() {
			return nil, errAt(c.Line, c.Col, "%s: argument %d must be a number", c.Fn, i+1)
		}
		out[i] = a.Num
	}
	return out, nil
}

func num1(fn func(float64) float64) func(*CallExpr, []Value) (Value, error) {
	return func(c *CallExpr, args []Value) (Value, error) {
		xs, err := numericArgs(c, args)
		if err != nil {
			return Value{}, err
		}
		return NumValue(fn(xs[0])), nil
	}
}

var builtins = map[string]builtin{
	"min": {2, -1, func(c *CallExpr, args []Value) (Value, error) {
		xs, err := numericArgs(c, args)
		if err != nil {
			return Value{}, err
		}
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return NumValue(m), nil
	}},
	"max": {2, -1, func(c *CallExpr, args []Value) (Value, error) {
		xs, err := numericArgs(c, args)
		if err != nil {
			return Value{}, err
		}
		m := xs[0]
		for _, x := range xs[1:] {
			if x > m {
				m = x
			}
		}
		return NumValue(m), nil
	}},
	"ceil":  {1, 1, num1(math.Ceil)},
	"floor": {1, 1, num1(math.Floor)},
	"round": {1, 1, num1(math.Round)},
	"abs":   {1, 1, num1(math.Abs)},
	"sqrt":  {1, 1, num1(math.Sqrt)},
	"log":   {1, 1, num1(math.Log)},
	"log2":  {1, 1, num1(math.Log2)},
	"exp":   {1, 1, num1(math.Exp)},
	"pow": {2, 2, func(c *CallExpr, args []Value) (Value, error) {
		xs, err := numericArgs(c, args)
		if err != nil {
			return Value{}, err
		}
		return NumValue(math.Pow(xs[0], xs[1])), nil
	}},
	"if": {3, 3, func(c *CallExpr, args []Value) (Value, error) {
		if args[0].IsArray() {
			return Value{}, errAt(c.Line, c.Col, "if: condition must be a number")
		}
		if args[0].Num != 0 {
			return args[1], nil
		}
		return args[2], nil
	}},
	"len": {1, 1, func(c *CallExpr, args []Value) (Value, error) {
		if !args[0].IsArray() {
			return Value{}, errAt(c.Line, c.Col, "len: argument must be an array")
		}
		return NumValue(float64(len(args[0].Arr))), nil
	}},
	"sum": {1, 1, func(c *CallExpr, args []Value) (Value, error) {
		if !args[0].IsArray() {
			return Value{}, errAt(c.Line, c.Col, "sum: argument must be an array")
		}
		total := 0.0
		for i, e := range args[0].Arr {
			if e.IsArray() {
				return Value{}, errAt(c.Line, c.Col, "sum: element %d is not a number", i)
			}
			total += e.Num
		}
		return NumValue(total), nil
	}},
	// tri(k) is the k-th triangular number k(k+1)/2, a common communication
	// volume term in the image-processing style models.
	"tri": {1, 1, num1(func(k float64) float64 { return k * (k + 1) / 2 })},
}

func (c *CallExpr) eval(env *Env) (Value, error) {
	b, ok := builtins[c.Fn]
	if !ok {
		return Value{}, errAt(c.Line, c.Col, "unknown function %q", c.Fn)
	}
	if len(c.Args) < b.minArgs || (b.maxArgs >= 0 && len(c.Args) > b.maxArgs) {
		return Value{}, errAt(c.Line, c.Col, "%s: wrong number of arguments (got %d)", c.Fn, len(c.Args))
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.eval(env)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return b.apply(c, args)
}

// Eval evaluates the model's time expression under the given parameter
// bindings and returns the predicted execution time on the reference
// platform in seconds. Parameters without bindings use their declared
// defaults; a missing binding for a defaultless parameter is an error.
func (m *AppModel) Eval(bindings map[string]float64) (float64, error) {
	if m.Time == nil {
		return 0, fmt.Errorf("pace: model %q has no time expression", m.Name)
	}
	env, err := m.bindEnv(bindings)
	if err != nil {
		return 0, err
	}
	v, err := m.Time.eval(env)
	if err != nil {
		return 0, fmt.Errorf("pace: model %q: time: %w", m.Name, err)
	}
	if v.IsArray() {
		return 0, fmt.Errorf("pace: model %q: time expression yielded an array", m.Name)
	}
	if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
		return 0, fmt.Errorf("pace: model %q: time expression yielded %v", m.Name, v.Num)
	}
	if v.Num < 0 {
		return 0, fmt.Errorf("pace: model %q: negative predicted time %g", m.Name, v.Num)
	}
	return v.Num, nil
}

// bindEnv binds params (given or defaulted) and then evaluates lets in
// declaration order.
func (m *AppModel) bindEnv(bindings map[string]float64) (*Env, error) {
	env := NewEnv(nil)
	for _, p := range m.Params {
		if v, ok := bindings[p.Name]; ok {
			env.Bind(p.Name, NumValue(v))
			continue
		}
		if p.Default == nil {
			return nil, fmt.Errorf("pace: model %q: missing required parameter %q", m.Name, p.Name)
		}
		v, err := p.Default.eval(env)
		if err != nil {
			return nil, fmt.Errorf("pace: model %q: default for %q: %w", m.Name, p.Name, err)
		}
		env.Bind(p.Name, v)
	}
	for name := range bindings {
		if !m.hasParam(name) {
			return nil, fmt.Errorf("pace: model %q: unknown parameter %q", m.Name, name)
		}
	}
	for _, l := range m.Lets {
		v, err := l.Expr.eval(env)
		if err != nil {
			return nil, fmt.Errorf("pace: model %q: let %s: %w", m.Name, l.Name, err)
		}
		env.Bind(l.Name, v)
	}
	return env, nil
}

func (m *AppModel) hasParam(name string) bool {
	for _, p := range m.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}
