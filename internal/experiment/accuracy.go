package experiment

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
)

// NoiseCase is one (scatter, bias) configuration of the prediction-
// accuracy study (§5 future work): actual execution times deviate from
// the PACE predictions by up to Rel relative scatter, shifted by Bias
// (the models' systematic optimism).
type NoiseCase struct {
	Rel  float64
	Bias float64
}

// AccuracyPoint is one row of the study: the experiment-3 run under one
// noise case.
type AccuracyPoint struct {
	NoiseCase
	scenario.Result
}

// DefaultNoiseCases sweeps scatter at zero bias and bias at moderate
// scatter.
func DefaultNoiseCases() []NoiseCase {
	return []NoiseCase{
		{0, 0}, {0.2, 0}, {0.5, 0},
		{0.2, 0.1}, {0.2, 0.25}, {0.2, 0.5},
	}
}

// accuracySpec is experiment 3 under one noise case.
func (p Params) accuracySpec(c NoiseCase) scenario.Spec {
	spec := p.caseStudy(Configs[2])
	spec.Name = fmt.Sprintf("accuracy-rel%g-bias%g", c.Rel, c.Bias)
	spec.PredictionError, spec.PredictionBias = c.Rel, c.Bias
	return spec
}

// RunAccuracyStudy sweeps the prediction error over the full agent-based
// configuration. Rel = 0 is the paper's exact test mode; growing error
// degrades the scheduler's decisions because both the GA cost function
// and the eq. 10 matchmaking reason over predictions that reality no
// longer honours.
func RunAccuracyStudy(cases []NoiseCase, p Params) ([]AccuracyPoint, error) {
	// One recorder must never hold several runs' events (the ReqIDs
	// collide), and this study sweeps many; its points carry no
	// telemetry export.
	opt := p.options()
	opt.Trace, opt.Telemetry = nil, false
	out := make([]AccuracyPoint, 0, len(cases))
	for _, c := range cases {
		res, err := scenario.Run(p.accuracySpec(c), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, AccuracyPoint{NoiseCase: c, Result: res})
	}
	return out, nil
}

// FormatAccuracy renders the study as a table.
func FormatAccuracy(points []AccuracyPoint) string {
	var b strings.Builder
	b.WriteString("Prediction-accuracy study (§5): experiment 3 with noisy execution times\n\n")
	fmt.Fprintf(&b, "%9s %7s %10s %8s %8s %10s\n", "scatter", "bias", "eps (s)", "ups (%)", "beta (%)", "met rate")
	for _, pt := range points {
		fmt.Fprintf(&b, "%8.0f%% %+6.0f%% %10.1f %8.1f %8.1f %9.1f%%\n",
			pt.Rel*100, pt.Bias*100, pt.Epsilon, pt.Upsilon, pt.Beta, pt.HitRate*100)
	}
	return b.String()
}
