package pace

import (
	"math"
	"slices"
)

// Parser builds an AppModel from PSL source using recursive descent with
// standard operator precedence:
//
//	||  <  &&  <  comparisons  <  + -  <  * / %  <  unary  <  indexing
//
// It pulls tokens from the lexer one at a time, so input it rejects early
// (see maxNesting) is never tokenised in full.
type Parser struct {
	lex   *Lexer
	tok   Token // the lookahead, once ahead is set
	ahead bool
	err   error // the lexical error parsing stopped at, if any
	depth int   // nesting levels the parser is inside; see maxNesting
}

// maxNesting bounds how deeply an expression may nest, counting both the
// parser's own recursion (parentheses, brackets, call arguments, unary
// operators) and the levels the parsed expression takes when String
// prints it (every binary operation is parenthesised there). Deeper input
// is a positioned error rather than an exhausted goroutine stack, and
// every accepted model reads back from its String form.
const maxNesting = 1000

// enter descends one nesting level at token t.
func (p *Parser) enter(t Token) error {
	p.depth++
	if p.depth > maxNesting {
		return errTooDeep(t)
	}
	return nil
}

func errTooDeep(t Token) error {
	return errAt(t.Line, t.Col, "expression nests deeper than %d levels", maxNesting)
}

// ParseModel parses a single "application <name> { ... }" definition.
func ParseModel(src string) (*AppModel, error) {
	p := &Parser{lex: NewLexer(src)}
	m, err := p.parseApplication()
	if err == nil {
		if t := p.peek(); t.Kind != TokEOF {
			err = errAt(t.Line, t.Col, "unexpected %s after application body", t)
		}
	}
	if err = p.failure(err); err != nil {
		return nil, err
	}
	m.Source = src
	return m, nil
}

// ParseModels parses a sequence of application definitions from one source
// file, as used by model libraries.
func ParseModels(src string) ([]*AppModel, error) {
	p := &Parser{lex: NewLexer(src)}
	var models []*AppModel
	for p.peek().Kind != TokEOF {
		m, err := p.parseApplication()
		if err = p.failure(err); err != nil {
			return nil, err
		}
		m.Source = src
		models = append(models, m)
	}
	if err := p.failure(nil); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, errAt(1, 1, "no application definitions found")
	}
	return models, nil
}

// failure is the error a parse ends with: the lexical error it stopped
// at, if any, since the parser saw that point as the end of input, and
// otherwise err.
func (p *Parser) failure(err error) error {
	if p.err != nil {
		return p.err
	}
	return err
}

func (p *Parser) peek() Token {
	if !p.ahead {
		t, err := p.lex.Next()
		if err != nil {
			p.err = err
			t = Token{Kind: TokEOF}
		}
		p.tok, p.ahead = t, true
	}
	return p.tok
}

// next consumes the lookahead; the end of input is never consumed.
func (p *Parser) next() Token {
	t := p.peek()
	p.ahead = t.Kind == TokEOF
	return t
}

func (p *Parser) expectPunct(text string) (Token, error) {
	t := p.next()
	if t.Kind != TokPunct || t.Text != text {
		return t, errAt(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	return t, nil
}

func (p *Parser) expectKeyword(text string) (Token, error) {
	t := p.next()
	if t.Kind != TokKeyword || t.Text != text {
		return t, errAt(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	return t, nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return t, errAt(t.Line, t.Col, "expected identifier, found %s", t)
	}
	return t, nil
}

func (p *Parser) atPunct(text string) bool {
	t := p.peek()
	return t.Kind == TokPunct && t.Text == text
}

func (p *Parser) atOp(text string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == text
}

func (p *Parser) parseApplication() (*AppModel, error) {
	if _, err := p.expectKeyword("application"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	m := &AppModel{Name: name.Text}
	seen := map[string]bool{}
	hasDeadline := false
	for !p.atPunct("}") {
		t := p.peek()
		if t.Kind == TokEOF {
			return nil, errAt(t.Line, t.Col, "unterminated application body for %q", m.Name)
		}
		if t.Kind != TokKeyword {
			return nil, errAt(t.Line, t.Col, "expected statement keyword, found %s", t)
		}
		switch t.Text {
		case "param":
			p.next()
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if seen[id.Text] {
				return nil, errAt(id.Line, id.Col, "duplicate declaration of %q", id.Text)
			}
			seen[id.Text] = true
			var def Expr
			if p.atPunct("=") {
				def, err = p.parseAssignment()
			} else {
				_, err = p.expectPunct(";")
			}
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, ParamDecl{Name: id.Text, Default: def})

		case "let":
			p.next()
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if seen[id.Text] {
				return nil, errAt(id.Line, id.Col, "duplicate declaration of %q", id.Text)
			}
			seen[id.Text] = true
			e, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			m.Lets = append(m.Lets, LetDecl{Name: id.Text, Expr: e})

		case "time":
			p.next()
			if m.Time != nil {
				return nil, errAt(t.Line, t.Col, "duplicate time definition")
			}
			if m.Time, err = p.parseAssignment(); err != nil {
				return nil, err
			}

		case "deadline":
			p.next()
			if hasDeadline {
				return nil, errAt(t.Line, t.Col, "duplicate deadline definition")
			}
			hasDeadline = true
			if _, err := p.expectPunct("="); err != nil {
				return nil, err
			}
			lo, hi, err := p.parseDeadlineDomain()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			m.DeadlineLo, m.DeadlineHi = lo, hi

		default:
			return nil, errAt(t.Line, t.Col, "unexpected keyword %q in application body", t.Text)
		}
	}
	p.next() // consume "}"
	if m.Time == nil {
		return nil, errAt(name.Line, name.Col, "application %q has no time definition", m.Name)
	}
	return m, nil
}

// parseAssignment parses "= <expr>;".
func (p *Parser) parseAssignment() (Expr, error) {
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	_, err = p.expectPunct(";")
	return e, err
}

// parseDeadlineDomain parses "[lo, hi]" with constant numeric bounds.
func (p *Parser) parseDeadlineDomain() (lo, hi float64, err error) {
	open, err := p.expectPunct("[")
	if err != nil {
		return 0, 0, err
	}
	loE, err := p.parseExpr()
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.expectPunct(","); err != nil {
		return 0, 0, err
	}
	hiE, err := p.parseExpr()
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.expectPunct("]"); err != nil {
		return 0, 0, err
	}
	env := NewEnv(nil)
	loV, err := loE.eval(env)
	if err != nil {
		return 0, 0, err
	}
	hiV, err := hiE.eval(env)
	if err != nil {
		return 0, 0, err
	}
	if loV.IsArray() || hiV.IsArray() {
		return 0, 0, errAt(open.Line, open.Col, "deadline bounds must be numbers")
	}
	if math.IsNaN(loV.Num) || math.IsNaN(hiV.Num) || math.IsInf(loV.Num, 0) || math.IsInf(hiV.Num, 0) {
		return 0, 0, errAt(open.Line, open.Col, "deadline bounds must be finite: [%g, %g]", loV.Num, hiV.Num)
	}
	if hiV.Num < loV.Num {
		return 0, 0, errAt(open.Line, open.Col, "deadline domain is empty: [%g, %g]", loV.Num, hiV.Num)
	}
	return loV.Num, hiV.Num, nil
}

func (p *Parser) parseExpr() (Expr, error) {
	start := p.peek()
	if err := p.enter(start); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	e, err := p.parseBinary(0)
	// A whole expression reads back from String at one level plus its
	// nesting; a nested one's parentheses may be the very ones String
	// prints, so only the whole is measured.
	if err == nil && p.depth == 1 && 1+e.nesting() > maxNesting {
		return nil, errTooDeep(start)
	}
	return e, err
}

// binaryLevels lists the binary operators by precedence, loosest first.
// Every level is left-associative except the comparisons, which do not
// chain.
var binaryLevels = [][]string{{"||"}, {"&&"}, {"==", "!=", "<", "<=", ">", ">="}, {"+", "-"}, {"*", "/", "%"}}

const cmpLevel = 2

// parseBinary parses the operators of binaryLevels[level] and tighter.
func (p *Parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for t := p.peek(); t.Kind == TokOp && slices.Contains(binaryLevels[level], t.Text); t = p.peek() {
		op := p.next()
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.Text, L: l, R: r, Line: op.Line, Col: op.Col, nest: 1 + max(l.nesting(), r.nesting())}
		if level == cmpLevel {
			break
		}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.atOp("-") || p.atOp("!") {
		op := p.next()
		if err := p.enter(op); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op.Text, X: x, Line: op.Line, Col: op.Col, nest: 1 + x.nesting()}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("[") {
		open := p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		base := e.nesting()
		if _, ok := e.(*UnaryExpr); ok {
			base++ // printed in parentheses
		}
		e = &IndexExpr{Base: e, Index: idx, Line: open.Line, Col: open.Col, nest: max(base, 1+idx.nesting())}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch {
	case t.Kind == TokNumber:
		return &NumberLit{Val: t.Num, Line: t.Line, Col: t.Col}, nil

	case t.Kind == TokIdent:
		if p.atPunct("(") {
			p.next()
			args, err := p.parseList(")")
			if err != nil {
				return nil, err
			}
			if _, ok := builtins[t.Text]; !ok {
				return nil, errAt(t.Line, t.Col, "unknown function %q", t.Text)
			}
			return &CallExpr{Fn: t.Text, Args: args, Line: t.Line, Col: t.Col, nest: 1 + deepest(args)}, nil
		}
		return &Ident{Name: t.Text, Line: t.Line, Col: t.Col}, nil

	case t.Kind == TokPunct && t.Text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == TokPunct && t.Text == "[":
		elems, err := p.parseList("]")
		if err != nil {
			return nil, err
		}
		return &ArrayLit{Elems: elems, Line: t.Line, Col: t.Col, nest: 1 + deepest(elems)}, nil
	}
	return nil, errAt(t.Line, t.Col, "expected expression, found %s", t)
}

// parseList parses comma-separated expressions up to and including the
// closing punctuation.
func (p *Parser) parseList(closing string) ([]Expr, error) {
	var es []Expr
	if !p.atPunct(closing) {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			es = append(es, e)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
	}
	_, err := p.expectPunct(closing)
	return es, err
}
