// Package pace reimplements, in miniature, the role the PACE toolkit plays
// in the paper: producing predicted execution times t_x(ρ, σ) for an
// application model σ on a set of processing nodes ρ (Nudd et al., "PACE –
// a toolset for the performance prediction of parallel and distributed
// systems").
//
// Application models are written in a small performance specification
// language (PSL) and compiled by a lexer → parser → evaluator pipeline; a
// hardware model scales the reference-platform prediction to each platform.
// An Engine combines the two on demand and memoises results, mirroring the
// paper's demand-driven evaluation scheme with a cache of past evaluations
// (§2.2).
package pace

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokKeyword // application, param, let, time, deadline
	TokPunct   // { } ( ) [ ] , ; =
	TokOp      // + - * / % < <= > >= == != && || !
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokKeyword:
		return "keyword"
	case TokPunct:
		return "punctuation"
	case TokOp:
		return "operator"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Num  float64 // valid when Kind == TokNumber
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Pos formats the token position for error messages.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }

var keywords = map[string]bool{
	"application": true,
	"param":       true,
	"let":         true,
	"time":        true,
	"deadline":    true,
}

// Error is a PSL front-end error carrying a source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("psl:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...interface{}) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
