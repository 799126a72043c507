package pace

import (
	"math"
	"testing"
)

// everyFeature uses every PSL operator and builtin once.
const everyFeature = `
application every {
  param n;
  param k = 2;
  deadline = [0.5, 1e3];
  let a = [1, 2.5, .5, 1e-3];
  let b = min(n, 16) + max(n, 1, 2) - ceil(n / 3) * floor(n % 5) / (round(sqrt(n)) + 1);
  let c = abs(-n) + log(n) + log2(n) + exp(-n) + pow(n, 0.5) + len(a) + sum(a) + tri(k);
  let d = if(n <= 8 && n >= 1 || !(n == 3) && n != 4, n < 2, n > 9);
  time = b + c + d + a[min(n, 4) - 1];
}
`

// FuzzParsePSL: every model ParseModels accepts reads back from its
// String form, that form is stable, the deadline domain survives, and both
// copies evaluate bit for bit alike (or both fail) for n = 1..16.
func FuzzParsePSL(f *testing.F) {
	f.Add(appModelSources)
	f.Add(everyFeature)
	// String once printed (-x)[0] as -x[0], which negates after indexing.
	f.Add("application neg { param n; let x = [n]; time = 0 - (-x)[0]; }")
	f.Fuzz(func(t *testing.T, src string) {
		models, err := ParseModels(src)
		if err != nil {
			return
		}
		for _, m := range models {
			printed := m.String()
			again, err := ParseModel(printed)
			if err != nil {
				t.Fatalf("String form does not parse: %v\n%s", err, printed)
			}
			if again.String() != printed {
				t.Fatalf("String form is unstable:\n%s\n%s", printed, again.String())
			}
			if again.DeadlineLo != m.DeadlineLo || again.DeadlineHi != m.DeadlineHi {
				t.Fatalf("deadline [%g, %g] read back as [%g, %g]", m.DeadlineLo, m.DeadlineHi, again.DeadlineLo, again.DeadlineHi)
			}
			for n := 1; n <= 16; n++ {
				bind := map[string]float64{"n": float64(n)}
				v1, err1 := m.Eval(bind)
				v2, err2 := again.Eval(bind)
				if (err1 == nil) != (err2 == nil) || math.Float64bits(v1) != math.Float64bits(v2) {
					t.Fatalf("n=%d: %v (%v) read back as %v (%v)\n%s", n, v1, err1, v2, err2, printed)
				}
			}
		}
	})
}
