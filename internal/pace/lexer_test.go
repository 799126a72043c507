package pace

import (
	"strings"
	"testing"
)

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("application foo { time = 1 + 2.5; }")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokPunct, TokKeyword, TokPunct, TokNumber, TokOp, TokNumber, TokPunct, TokPunct}
	texts := []string{"application", "foo", "{", "time", "=", "1", "+", "2.5", ";", "}"}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, tok := range toks {
		if tok.Kind != kinds[i] || tok.Text != texts[i] {
			t.Fatalf("token %d = {%v %q}, want {%v %q}", i, tok.Kind, tok.Text, kinds[i], texts[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]float64{
		"0":      0,
		"42":     42,
		"3.5":    3.5,
		".5":     0.5,
		"1e3":    1000,
		"2.5e-1": 0.25,
		"1E+2":   100,
	}
	for src, want := range cases {
		toks, err := LexAll(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(toks) != 1 || toks[0].Kind != TokNumber || toks[0].Num != want {
			t.Fatalf("%q lexed to %v, want number %v", src, toks, want)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := LexAll("// leading comment\n1 // trailing\n// only comment\n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Num != 1 || toks[1].Num != 2 {
		t.Fatalf("comment handling produced %v", toks)
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % < <= > >= == != && || !"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(src)
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, tok := range toks {
		if tok.Kind != TokOp || tok.Text != want[i] {
			t.Fatalf("token %d = {%v %q}, want operator %q", i, tok.Kind, tok.Text, want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("token a at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("token bb at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"$", "a & b", "a | b", "#", "\"str\""} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestLexErrorHasPosition(t *testing.T) {
	_, err := LexAll("abc\n  $")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if pe.Line != 2 || pe.Col != 3 {
		t.Fatalf("error at %d:%d, want 2:3", pe.Line, pe.Col)
	}
	if !strings.Contains(err.Error(), "psl:2:3") {
		t.Fatalf("error message %q lacks position", err.Error())
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("application param let time deadline apples lettuce hardware step")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if toks[i].Kind != TokKeyword {
			t.Fatalf("%q lexed as %v, want keyword", toks[i].Text, toks[i].Kind)
		}
	}
	for i := 5; i < 9; i++ {
		if toks[i].Kind != TokIdent {
			t.Fatalf("%q lexed as %v, want identifier", toks[i].Text, toks[i].Kind)
		}
	}
}
