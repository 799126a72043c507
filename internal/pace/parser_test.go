package pace

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *AppModel {
	t.Helper()
	m, err := ParseModel(src)
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	return m
}

func evalModel(t *testing.T, m *AppModel, n float64) float64 {
	t.Helper()
	v, err := m.Eval(map[string]float64{"n": n})
	if err != nil {
		t.Fatalf("Eval(n=%v): %v", n, err)
	}
	return v
}

func TestParseMinimalModel(t *testing.T) {
	m := mustParse(t, "application tiny { param n; time = n * 2; }")
	if m.Name != "tiny" {
		t.Fatalf("name %q", m.Name)
	}
	if got := evalModel(t, m, 3); got != 6 {
		t.Fatalf("time = %v, want 6", got)
	}
}

func TestParseDeadlineDomain(t *testing.T) {
	m := mustParse(t, "application d { param n; deadline = [4, 200]; time = n; }")
	if m.DeadlineLo != 4 || m.DeadlineHi != 200 {
		t.Fatalf("deadline = [%v, %v], want [4, 200]", m.DeadlineLo, m.DeadlineHi)
	}
	if !m.HasDeadlineDomain() {
		t.Fatal("HasDeadlineDomain() = false")
	}
}

func TestParseLetChain(t *testing.T) {
	m := mustParse(t, `application chain {
	  param n;
	  let a = n + 1;
	  let b = a * a;
	  time = b - a;
	}`)
	// n=3: a=4, b=16, time=12
	if got := evalModel(t, m, 3); got != 12 {
		t.Fatalf("time = %v, want 12", got)
	}
}

func TestParseParamDefault(t *testing.T) {
	m := mustParse(t, "application def { param n; param iters = 10; time = n * iters; }")
	v, err := m.Eval(map[string]float64{"n": 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 20 {
		t.Fatalf("time with default = %v, want 20", v)
	}
	v, err = m.Eval(map[string]float64{"n": 2, "iters": 3})
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Fatalf("time with override = %v, want 6", v)
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":           7,
		"(1 + 2) * 3":         9,
		"10 - 4 - 3":          3, // left associative
		"2 * 3 % 4":           2,
		"-2 * 3":              -6,
		"1 < 2":               1,
		"2 < 1":               0,
		"1 < 2 && 3 < 4":      1,
		"1 < 2 && 4 < 3":      0,
		"1 > 2 || 3 < 4":      1,
		"!0":                  1,
		"!5":                  0,
		"1 + 1 == 2":          1,
		"3 != 3":              0,
		"if(1 < 2, 10, 20)":   10,
		"if(2 < 1, 10, 20)":   20,
		"min(3, 1, 2)":        1,
		"max(3, 1, 2)":        3,
		"ceil(2.1)":           3,
		"floor(2.9)":          2,
		"round(2.5)":          3,
		"abs(-4)":             4,
		"pow(2, 10)":          1024,
		"sqrt(49)":            7,
		"log2(8)":             3,
		"tri(7)":              28,
		"[5, 6, 7][1]":        6,
		"len([1, 2, 3])":      3,
		"sum([1, 2, 3, 4])":   10,
		"[10, 20][2 - 1] + 1": 21,
	}
	for src, want := range cases {
		// deadline guards against negative times; wrap expressions that can
		// be negative in abs for the model-level check.
		m := mustParse(t, "application p { time = abs("+src+"); }")
		v, err := m.Eval(nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if absWant := want; absWant < 0 {
			absWant = -absWant
			want = absWant
		}
		if v != want {
			t.Fatalf("%q = %v, want %v", src, v, want)
		}
	}
}

func TestParseNestedIndexing(t *testing.T) {
	m := mustParse(t, "application nest { let grid = [[1, 2], [3, 4]]; time = grid[1][0]; }")
	v, err := m.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("grid[1][0] = %v, want 3", v)
	}
}

func TestParseModelsMultiple(t *testing.T) {
	models, err := ParseModels(`
	  application one { time = 1; }
	  application two { time = 2; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "one" || models[1].Name != "two" {
		t.Fatalf("parsed %v", models)
	}
	if _, err := ParseModels("application one { time = 1; } $"); err == nil || !strings.Contains(err.Error(), "psl:1:31: unexpected character") {
		t.Fatalf("trailing lexical error: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"", "expected \"application\""},
		{"application { }", "expected identifier"},
		{"application x { }", "no time definition"},
		{"application x { time = 1; time = 2; }", "duplicate time"},
		{"application x { param n; param n; time = 1; }", "duplicate declaration"},
		{"application x { let a = 1; let a = 2; time = 1; }", "duplicate declaration"},
		{"application x { time = 1; } trailing", "unexpected"},
		{"application x { time = ; }", "expected expression"},
		{"application x { time = 1 }", "expected \";\""},
		{"application x { time = foo(1); }", "unknown function"},
		{"application x { bogus = 1; }", "expected statement keyword"},
		{"application x { time = (1; }", "expected \")\""},
		{"application x { time = [1, 2; }", "expected \"]\""},
		{"application x { deadline = [5, 2]; time = 1; }", "deadline domain is empty"},
		{"application x { deadline = [[1], 2]; time = 1; }", "deadline bounds must be numbers"},
		{"application x { time = 1", "expected \";\""},
		{"application x { param n; ", "unterminated"},
		{"application x { time = 1 @ 2; }", "unexpected character \"@\""},
		{"application a { param n; deadline = [1, 5]; deadline = [7, 9]; time = n; }", "duplicate deadline"},
		{"application x { deadline = [sqrt(-1), 1]; time = 1; }", "deadline bounds must be finite"},
		{"application x { deadline = [0, exp(1000)]; time = 1; }", "deadline bounds must be finite"},
	}
	for _, c := range cases {
		_, err := ParseModel(c.src)
		if err == nil {
			t.Errorf("ParseModel(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseModel(%q) error = %q, want substring %q", c.src, err.Error(), c.wantSub)
		}
	}
}

func TestParseModelsEmptyInput(t *testing.T) {
	if _, err := ParseModels("  // nothing here\n"); err == nil {
		t.Fatal("ParseModels on empty input succeeded")
	}
}

func TestModelStringRoundTrip(t *testing.T) {
	src := `application rt {
	  param n;
	  param k = 4;
	  deadline = [2, 36];
	  let profile = [9, 8, 7];
	  time = profile[min(n, 3) - 1] * k;
	}`
	m1 := mustParse(t, src)
	// Rendering the model back to PSL and reparsing must preserve meaning.
	m2 := mustParse(t, m1.String())
	for n := 1.0; n <= 5; n++ {
		v1, err1 := m1.Eval(map[string]float64{"n": n})
		v2, err2 := m2.Eval(map[string]float64{"n": n})
		if err1 != nil || err2 != nil {
			t.Fatalf("n=%v: errs %v / %v", n, err1, err2)
		}
		if v1 != v2 {
			t.Fatalf("round-trip changed semantics at n=%v: %v vs %v", n, v1, v2)
		}
	}
	if m2.DeadlineLo != 2 || m2.DeadlineHi != 36 {
		t.Fatalf("round-trip lost deadline: [%v, %v]", m2.DeadlineLo, m2.DeadlineHi)
	}
}

// The layered form's hardware declarations are not PSL: a source that
// declares one fails at the keyword's position.
func TestParseHardwareErrors(t *testing.T) {
	for _, src := range []string{
		"hardware h { flops = 1e9; }",
		"application a { time = 1; }\nhardware h { flops = 1e9; netbw = 1e8; }",
	} {
		_, err := ParseModels(src)
		if err == nil || !positioned.MatchString(err.Error()) || !strings.Contains(err.Error(), `found "hardware"`) {
			t.Errorf("ParseModels(%q) err = %v, want a positioned error at \"hardware\"", src, err)
		}
	}
}

// Nor are the layered form's steps: "step" is an ordinary identifier.
func TestParseStepErrors(t *testing.T) {
	_, err := ParseModel("application a { param n; step s { flops = 1; } time = n; }")
	if err == nil || !strings.Contains(err.Error(), `psl:1:26: expected statement keyword, found "step"`) {
		t.Fatalf("step block: err = %v", err)
	}
	m := mustParse(t, "application a { param n; let step = 2; let hardware = 3; time = n * step + hardware; }")
	if got := evalModel(t, m, 4); got != 11 {
		t.Fatalf("step/hardware as names: %v, want 11", got)
	}
}

func TestParseModelsRejectsHardware(t *testing.T) {
	if _, err := ParseModels("hardware h { flops = 1; }"); err == nil {
		t.Fatal("ParseModels accepted hardware declarations")
	}
}

var positioned = regexp.MustCompile(`^psl:\d+:\d+: `)

// nested builds "time = E;" where E nests depth levels of one kind.
func nested(kind string, depth int) string {
	var b strings.Builder
	b.WriteString("application deep { param n; time = ")
	switch kind {
	case "paren":
		b.WriteString(strings.Repeat("(", depth) + "n" + strings.Repeat(")", depth))
	case "bracket":
		b.WriteString(strings.Repeat("[", depth) + "n" + strings.Repeat("]", depth))
	case "unary":
		b.WriteString(strings.Repeat("- ", depth) + "n")
	case "chain": // a flat sum, which String prints one parenthesis per +
		b.WriteString("n" + strings.Repeat(" + n", depth))
	}
	b.WriteString("; }")
	return b.String()
}

// TestParseDeepNesting: the outer expression is the first level, so
// maxNesting-1 more still parse, evaluate and read back from String; one
// more, or 10⁶ more, is a positioned error and not a stack overflow.
func TestParseDeepNesting(t *testing.T) {
	want := map[string]string{
		"paren":   "3",
		"bracket": strings.Repeat("[", maxNesting-1) + "3" + strings.Repeat("]", maxNesting-1),
		"unary":   "-3",
		"chain":   strconv.Itoa(3 * maxNesting),
	}
	for _, kind := range []string{"paren", "bracket", "unary", "chain"} {
		m, err := ParseModel(nested(kind, maxNesting-1))
		if err != nil {
			t.Fatalf("%s at the cap: %v", kind, err)
		}
		env, err := m.bindEnv(map[string]float64{"n": 3})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := m.Time.eval(env); err != nil || v.String() != want[kind] {
			t.Fatalf("%s at the cap evaluates to %v, %v; want %v", kind, v, err, want[kind])
		}
		if m2, err := ParseModel(m.String()); err != nil || m2.String() != m.String() {
			t.Fatalf("%s at the cap does not read back from String: %v", kind, err)
		}
		depths := []int{maxNesting, 1_000_000}
		if kind == "chain" {
			depths = depths[:1] // a chain does not recurse in the parser
		}
		for _, depth := range depths {
			_, err := ParseModel(nested(kind, depth))
			if err == nil || !positioned.MatchString(err.Error()) || !strings.Contains(err.Error(), "nests deeper than") {
				t.Fatalf("%s nested %d deep: err = %v, want a positioned nesting error", kind, depth, err)
			}
		}
	}
}
