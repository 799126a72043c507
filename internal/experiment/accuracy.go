package experiment

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
)

// AccuracyPoint is one row of the prediction-accuracy study (§5 future
// work): the experiment-3 configuration run with actual execution times
// deviating from PACE predictions by up to Rel relative error.
type AccuracyPoint struct {
	Rel      float64 // maximum relative prediction scatter
	Bias     float64 // systematic optimism of the models
	Epsilon  float64 // grid-wide ε (s)
	Upsilon  float64 // grid-wide υ (%)
	Beta     float64 // grid-wide β (%)
	MetRate  float64 // fraction of tasks completing by their deadline
	Requests int
	Audit    *audit.Result // set when Params.Audit is on
}

// NoiseCase is one (scatter, bias) configuration of the study.
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

// RunAccuracyStudy sweeps the prediction error over the full agent-based
// configuration. Rel = 0 is the paper's exact test mode; growing error
// degrades the scheduler's decisions because both the GA cost function
// and the eq. 10 matchmaking reason over predictions that reality no
// longer honours.
func RunAccuracyStudy(cases []NoiseCase, p Params) ([]AccuracyPoint, error) {
	// One recorder must never hold several runs' events (the ReqIDs
	// collide), and this study sweeps many; its points carry no
	// telemetry export.
	p.Trace, p.Telemetry = nil, false
	out := make([]AccuracyPoint, 0, len(cases))
	for _, c := range cases {
		o, _, err := p.run(CaseStudyResources(), core.Options{
			Policy:          core.PolicyGA,
			UseAgents:       true,
			PredictionError: c.Rel,
			PredictionBias:  c.Bias,
		}, p.workload(), p.phase())
		if err != nil {
			return nil, err
		}
		out = append(out, AccuracyPoint{
			Rel:      c.Rel,
			Bias:     c.Bias,
			Epsilon:  o.Report.Total.Epsilon,
			Upsilon:  o.Report.Total.Upsilon,
			Beta:     o.Report.Total.Beta,
			MetRate:  metrics.HitRate(o.Records),
			Requests: len(o.Records),
			Audit:    o.Audit,
		})
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
			pt.Rel*100, pt.Bias*100, pt.Epsilon, pt.Upsilon, pt.Beta, pt.MetRate*100)
	}
	return b.String()
}
