package experiment

import (
	"fmt"
	"strings"
)

// NoiseCase is one (scatter, bias) configuration of the prediction-
// accuracy study (§5 future work): actual execution times deviate from
// the PACE predictions by up to Rel relative scatter, shifted by Bias
// (the models' systematic optimism).
type NoiseCase struct {
	Rel  float64
	Bias float64
}

// DefaultNoiseCases sweeps scatter at zero bias and bias at moderate
// scatter.
func DefaultNoiseCases() []NoiseCase {
	return []NoiseCase{
		{0, 0}, {0.2, 0}, {0.5, 0},
		{0.2, 0.1}, {0.2, 0.25}, {0.2, 0.5},
	}
}

// AccuracyRuns sweeps the prediction error over the full agent-based
// configuration: experiment 3 under each noise case. Rel = 0 is the
// paper's exact test mode; growing error degrades the scheduler's
// decisions because both the GA cost function and the eq. 10
// matchmaking reason over predictions that reality no longer honours.
func (p Params) AccuracyRuns(cases []NoiseCase) []Run {
	runs := make([]Run, len(cases))
	for i, c := range cases {
		spec := p.caseStudy(Configs[2])
		spec.Name = fmt.Sprintf("accuracy-rel%g-bias%g", c.Rel, c.Bias)
		spec.PredictionError, spec.PredictionBias = c.Rel, c.Bias
		runs[i] = Run{Label: fmt.Sprintf("accuracy scatter=%g bias=%g", c.Rel, c.Bias), Setup: Configs[2], Spec: spec}
	}
	return runs
}

// FormatAccuracy renders AccuracyRuns' outcomes as a table.
func FormatAccuracy(outs []Outcome) string {
	var b strings.Builder
	b.WriteString("Prediction-accuracy study (§5): experiment 3 with noisy execution times\n\n")
	fmt.Fprintf(&b, "%9s %7s %10s %8s %8s %10s\n", "scatter", "bias", "eps (s)", "ups (%)", "beta (%)", "met rate")
	for _, pt := range outs {
		fmt.Fprintf(&b, "%8.0f%% %+6.0f%% %10.1f %8.1f %8.1f %9.1f%%\n",
			pt.Spec.PredictionError*100, pt.Spec.PredictionBias*100, pt.Epsilon, pt.Upsilon, pt.Beta, pt.HitRate*100)
	}
	return b.String()
}
