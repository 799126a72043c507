// Package experiment reproduces the paper's case study (§4): the twelve-
// resource grid of Fig. 7, the three load-balancing configurations of
// Table 2, and the reports behind Table 3 and Figs. 8–10.
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Setup is one row of Table 2: which local algorithm runs and whether the
// agent-based service discovery layer is active.
type Setup struct {
	ID        int
	Policy    core.PolicyKind
	UseAgents bool
	Label     string
}

// Configs is the Table 2 experiment design.
var Configs = []Setup{
	{ID: 1, Policy: core.PolicyFIFO, UseAgents: false, Label: "FIFO, no agents"},
	{ID: 2, Policy: core.PolicyGA, UseAgents: false, Label: "GA, no agents"},
	{ID: 3, Policy: core.PolicyGA, UseAgents: true, Label: "GA + agent discovery"},
}

// Params holds the workload and GA knobs shared across the studies.
// Every study turns them into labelled scenario specs, which RunStudy
// runs through scenario.Run, so each run is built, audited and reduced
// the same way.
type Params struct {
	Seed     uint64
	Requests int     // §4.1 uses 600
	Interval float64 // §4.1 uses 1 s
	// GA overrides the case-study GA knobs (scenario.DefaultGA); zero
	// fields keep the defaults.
	GA scenario.GASpec
}

// DefaultParams returns the §4.1 case-study parameters.
func DefaultParams() Params {
	return Params{Seed: 2003, Requests: 600, Interval: 1}
}

// QuickParams returns a reduced workload for tests: half the request
// phase. The grid must still saturate for the Table 3 orderings to
// emerge, so the reduction is modest.
func QuickParams() Params {
	p := DefaultParams()
	p.Requests = 300
	p.GA = scenario.GASpec{MaxGenerations: 15, ConvergenceWindow: 5}
	return p
}

// Run is one labelled run of a study: the Table 2 configuration it
// belongs to and the scenario spec it runs.
type Run struct {
	// Label names the run in audit verdicts and telemetry keys, e.g.
	// "experiment 3" or "exp5 migrated".
	Label string        `json:"label"`
	Setup Setup         `json:"-"`
	Spec  scenario.Spec `json:"spec"`
}

// Outcome is one run's results. It marshals as {label, spec, result}:
// the spec is a complete scenario file, so `gridexp -scenario` on it
// reproduces the result.
type Outcome struct {
	Run
	scenario.Result `json:"result"`
}

// gaSpec returns the params' GA overrides as a spec section; nil keeps
// the defaults.
func (p Params) gaSpec() *scenario.GASpec {
	if p.GA == (scenario.GASpec{}) {
		return nil
	}
	g := p.GA
	return &g
}

// caseStudy expresses one configuration as a scenario spec: the Fig. 7
// grid under the §4.1 workload at the params' size. Experiment 3 at
// DefaultParams is scenario.Fig7() itself; the extension studies start
// from this spec and switch their feature on.
func (p Params) caseStudy(s Setup) scenario.Spec {
	spec := scenario.Fig7()
	spec.Seed = p.Seed
	spec.Arrivals.Count, spec.Arrivals.Interval = p.Requests, p.Interval
	spec.Policy = string(s.Policy)
	if !s.UseAgents {
		spec.UseAgents = &s.UseAgents
	}
	spec.GA = p.gaSpec()
	return spec
}

// CaseStudyRuns is the Table 2 study: experiments 1–3 over the identical
// workload, experiment 3 last.
func (p Params) CaseStudyRuns() []Run {
	runs := make([]Run, len(Configs))
	for i, s := range Configs {
		runs[i] = Run{Label: fmt.Sprintf("experiment %d", s.ID), Setup: s, Spec: p.caseStudy(s)}
	}
	return runs
}

// RunStudy runs a study's runs concurrently, at most GOMAXPROCS at a
// time (a long sweep must not hold every point's grid in memory at
// once), and returns their outcomes in the runs' order. Each run builds
// its own grid, engine and seed-derived RNGs from its spec alone, so the
// outcomes are identical to a sequential sweep at any opt.Workers. A
// trace recorder goes to the last run only: the runs mint the same
// ReqIDs, and one recorder holding two runs' events would show the audit
// every task executed twice. With opt.Telemetry every run is instrumented
// on its own registry, and its export lands on its outcome.
func RunStudy(runs []Run, opt scenario.RunOptions) ([]Outcome, error) {
	out := make([]Outcome, len(runs))
	errs := make([]error, len(runs))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, r := range runs {
		o := opt
		if i != len(runs)-1 {
			o.Trace = nil
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			res, err := scenario.Run(r.Spec, o)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", r.Label, err)
				return
			}
			out[i] = Outcome{Run: r, Result: res}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
