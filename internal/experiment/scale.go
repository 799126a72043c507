package experiment

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/pace"
	"repro/internal/workload"
)

// The paper argues the advertisement/discovery design "allows possible
// system scalability" because requests are processed between neighbouring
// agents with no central structure (§3.1), and leaves scalability
// experiments as future work (§5). This study runs them: synthetic
// hierarchies of growing size under a proportionally growing workload,
// measuring discovery locality (hops) and the §3.3 metrics.

// SyntheticResources builds an n-agent hierarchy as a branching-ary tree
// with hardware models cycling from fastest to slowest, 16 nodes each —
// the Fig. 7 grid generalised to arbitrary size.
func SyntheticResources(n, branching int) []core.ResourceSpec {
	if n < 1 {
		n = 1
	}
	if branching < 1 {
		branching = 3
	}
	hw := pace.HardwareNames()
	specs := make([]core.ResourceSpec, n)
	for i := 0; i < n; i++ {
		specs[i].Name = fmt.Sprintf("A%d", i+1)
		if i > 0 {
			specs[i].Parent = fmt.Sprintf("A%d", (i-1)/branching+1)
		}
		specs[i].Hardware = hw[i%len(hw)]
		specs[i].Nodes = 16
	}
	return specs
}

// ScalePoint is one grid size of the scalability study.
type ScalePoint struct {
	Agents    int
	Requests  int
	MeanHops  float64 // agents traversed per request before dispatch
	MaxHops   int
	Fallbacks int
	Epsilon   float64
	Upsilon   float64
	Beta      float64
	Audit     *audit.Result // set when Params.Audit is on
}

// RunScalabilityStudy runs the agent-based configuration over synthetic
// grids of the given sizes. The workload grows with the grid (the case
// study's ~50 requests per resource arriving within the same ten-minute
// phase, so the load density per resource stays constant), and the
// question measured is whether discovery stays local and balancing holds
// as the system grows — not whether a fixed workload gets easier. With
// Params.Audit every size is audited; the study exports no telemetry, so
// Params.Telemetry is an error rather than a silent no-op.
func RunScalabilityStudy(sizes []int, branching int, reqsPerAgent int, p Params) ([]ScalePoint, error) {
	if p.Telemetry {
		return nil, errors.New("experiment: the scalability study exports no telemetry")
	}
	if reqsPerAgent <= 0 {
		reqsPerAgent = 50
	}
	p.Trace = nil // the trace is experiment 3's
	out := make([]ScalePoint, 0, len(sizes))
	for _, n := range sizes {
		specs := SyntheticResources(n, branching)
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		// Fixed request phase (reqsPerAgent × Interval seconds per the
		// 12-agent case study): arrival rate scales with grid size.
		phase := float64(reqsPerAgent) * p.Interval * 12
		spec := workload.CaseStudySpec(p.Seed, names)
		spec.Count = reqsPerAgent * n
		spec.Interval = phase / float64(spec.Count)
		o, _, err := p.run(specs, core.Options{Policy: core.PolicyGA, UseAgents: true}, spec, phase)
		if err != nil {
			return nil, err
		}
		pt := ScalePoint{Agents: n, Requests: spec.Count,
			Epsilon: o.Report.Total.Epsilon, Upsilon: o.Report.Total.Upsilon, Beta: o.Report.Total.Beta,
			Audit: o.Audit}
		var hops int
		for _, d := range o.Dispatches {
			hops += d.Hops
			if d.Hops > pt.MaxHops {
				pt.MaxHops = d.Hops
			}
			if d.Fallback {
				pt.Fallbacks++
			}
		}
		if len(o.Dispatches) > 0 {
			pt.MeanHops = float64(hops) / float64(len(o.Dispatches))
		}
		out = append(out, pt)
	}
	return out, nil
}

// FormatScalability renders the study as a table.
func FormatScalability(points []ScalePoint) string {
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
