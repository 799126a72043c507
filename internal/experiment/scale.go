package experiment

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
)

// The paper argues the advertisement/discovery design "allows possible
// system scalability" because requests are processed between neighbouring
// agents with no central structure (§3.1), and leaves scalability
// experiments as future work (§5). This study runs them: synthetic
// hierarchies of growing size under a proportionally growing workload,
// measuring discovery locality (hops) and the §3.3 metrics.

// scaleSpec is the agent-based configuration over an n-agent generated
// hierarchy (the Fig. 7 grid generalised: hardware cycling from fastest
// to slowest, 16 nodes each) under reqsPerAgent requests per agent. The
// request phase stays the 12-agent case study's reqsPerAgent × Interval
// × 12 seconds, so the arrival rate — not the phase — scales with the
// grid.
func (p Params) scaleSpec(n, branching, reqsPerAgent int) scenario.Spec {
	phase := float64(reqsPerAgent) * p.Interval * 12
	count := reqsPerAgent * n
	return scenario.Spec{
		Name:     fmt.Sprintf("scale-%d", n),
		Seed:     p.Seed,
		Topology: scenario.TopologySpec{Agents: n, Branching: branching},
		Arrivals: scenario.ArrivalSpec{Process: "fixed", Count: count, Interval: phase / float64(count)},
		Policy:   string(core.PolicyGA),
		GA:       p.gaSpec(),
	}
}

// RunScalabilityStudy runs the agent-based configuration over synthetic
// grids of the given sizes, one audited scenario run per size. The
// workload grows with the grid (the case study's ~50 requests per
// resource arriving within the same ten-minute phase, so the load
// density per resource stays constant), and the question measured is
// whether discovery stays local and balancing holds as the system grows
// — not whether a fixed workload gets easier. The study exports no
// telemetry, so Params.Telemetry is an error rather than a silent no-op.
func RunScalabilityStudy(sizes []int, branching int, reqsPerAgent int, p Params) ([]scenario.Result, error) {
	if p.Telemetry {
		return nil, errors.New("experiment: the scalability study exports no telemetry")
	}
	if reqsPerAgent <= 0 {
		reqsPerAgent = 50
	}
	opt := p.options()
	opt.Trace = nil // the trace is experiment 3's
	out := make([]scenario.Result, 0, len(sizes))
	for _, n := range sizes {
		res, err := scenario.Run(p.scaleSpec(n, branching, reqsPerAgent), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatScalability renders the study as a table.
func FormatScalability(points []scenario.Result) string {
	var b strings.Builder
	b.WriteString("Scalability study (§5): GA + agents on synthetic hierarchies\n\n")
	fmt.Fprintf(&b, "%7s %9s %10s %9s %10s %9s %8s %9s\n",
		"agents", "requests", "mean hops", "max hops", "fallbacks", "eps (s)", "ups (%)", "beta (%)")
	for _, pt := range points {
		fmt.Fprintf(&b, "%7d %9d %10.2f %9d %10d %9.1f %8.1f %9.1f\n",
			pt.Agents, pt.Requests, pt.MeanHops, pt.MaxHops, pt.Fallbacks, pt.Epsilon, pt.Upsilon, pt.Beta)
	}
	return b.String()
}
