package experiment

import (
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

// ScaleRuns is the agent-based configuration over synthetic grids of
// the given sizes: each an n-agent generated hierarchy (the Fig. 7 grid
// generalised: hardware cycling from fastest to slowest, 16 nodes each)
// under reqsPerAgent requests per agent (≤ 0: 50). The workload grows
// with the grid — the case study's ~50 requests per resource arriving
// within the same ten-minute phase, so the load density per resource
// stays constant — and the question measured is whether discovery stays
// local and balancing holds as the system grows, not whether a fixed
// workload gets easier. The request phase stays the 12-agent case
// study's reqsPerAgent × Interval × 12 seconds, so the arrival rate —
// not the phase — scales with the grid.
func (p Params) ScaleRuns(sizes []int, branching, reqsPerAgent int) []Run {
	if reqsPerAgent <= 0 {
		reqsPerAgent = 50
	}
	phase := float64(reqsPerAgent) * p.Interval * 12
	runs := make([]Run, len(sizes))
	for i, n := range sizes {
		count := reqsPerAgent * n
		runs[i] = Run{Label: fmt.Sprintf("scale n=%d", n), Setup: Configs[2], Spec: scenario.Spec{
			Name:     fmt.Sprintf("scale-%d", n),
			Seed:     p.Seed,
			Topology: scenario.TopologySpec{Agents: n, Branching: branching},
			Arrivals: scenario.ArrivalSpec{Process: "fixed", Count: count, Interval: phase / float64(count)},
			Policy:   string(core.PolicyGA),
			GA:       p.gaSpec(),
		}}
	}
	return runs
}

// FormatScalability renders ScaleRuns' outcomes as a table.
func FormatScalability(outs []Outcome) string {
	var b strings.Builder
	b.WriteString("Scalability study (§5): GA + agents on synthetic hierarchies\n\n")
	fmt.Fprintf(&b, "%7s %9s %10s %9s %10s %9s %8s %9s\n",
		"agents", "requests", "mean hops", "max hops", "fallbacks", "eps (s)", "ups (%)", "beta (%)")
	for _, pt := range outs {
		fmt.Fprintf(&b, "%7d %9d %10.2f %9d %10d %9.1f %8.1f %9.1f\n",
			pt.Agents, pt.Requests, pt.MeanHops, pt.MaxHops, pt.Fallbacks, pt.Epsilon, pt.Upsilon, pt.Beta)
	}
	return b.String()
}
