// Package experiment reproduces the paper's case study (§4): the twelve-
// resource grid of Fig. 7, the three load-balancing configurations of
// Table 2, and the reports behind Table 3 and Figs. 8–10.
package experiment

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
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

// Params holds the workload and GA knobs shared across the experiments.
// Every study turns them into scenario specs and runs those through
// scenario.Run, so each run is built, audited and reduced the same way.
type Params struct {
	Seed     uint64
	Requests int     // §4.1 uses 600
	Interval float64 // §4.1 uses 1 s
	// GA overrides the case-study GA knobs (scenario.DefaultGA); zero
	// fields keep the defaults.
	GA      scenario.GASpec
	Workers int             // GA cost-evaluation workers per policy; ≤1 sequential, results identical either way
	Trace   *trace.Recorder // optional lifecycle recorder; holds one run (RunAll: experiment 3's)
	// Telemetry instruments each experiment on its own fresh registry
	// (RunAll runs experiments concurrently, so a shared registry would
	// mix their totals) and attaches the export to Outcome.Telemetry.
	// Observing only: Table 1/Table 3 numbers are identical either way.
	Telemetry    bool
	SamplePeriod float64 // series period in virtual seconds; <= 0 → 10 s
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

// Outcome is one experiment's results: the scenario run of Spec, with
// the Table 2 row it belongs to.
type Outcome struct {
	Setup Setup
	Spec  scenario.Spec
	scenario.Result
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

// options returns the host knobs every study's runs share.
func (p Params) options() scenario.RunOptions {
	return scenario.RunOptions{Workers: p.Workers, Trace: p.Trace, Telemetry: p.Telemetry, SamplePeriod: p.SamplePeriod}
}

// runSpec runs one spec of the given configuration.
func runSpec(setup Setup, spec scenario.Spec, opt scenario.RunOptions) (Outcome, error) {
	res, err := scenario.Run(spec, opt)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiment %d: %w", setup.ID, err)
	}
	return Outcome{Setup: setup, Spec: spec, Result: res}, nil
}

// offOn runs one configuration twice over the identical workload — the
// feature under study off, then on — so any delta is the feature's. An
// external trace recorder goes to the on run only: one recorder must
// never hold two runs' events (the ReqIDs collide and the audit would
// see every task executed twice).
func (p Params) offOn(setup Setup, off, on scenario.Spec) (Outcome, Outcome, error) {
	optOff := p.options()
	optOff.Trace = nil
	a, err := runSpec(setup, off, optOff)
	if err != nil {
		return Outcome{}, Outcome{}, fmt.Errorf("off run: %w", err)
	}
	b, err := runSpec(setup, on, p.options())
	if err != nil {
		return Outcome{}, Outcome{}, fmt.Errorf("on run: %w", err)
	}
	return a, b, nil
}

// Run executes one experiment configuration against the case-study grid
// and workload.
func Run(setup Setup, p Params) (Outcome, error) {
	return runSpec(setup, p.caseStudy(setup), p.options())
}

// RunAll executes the three Table 2 experiments over the identical
// workload, one goroutine per experiment. Each experiment builds its own
// grid, engine and seed-derived RNGs from Params alone, so the runs are
// independent and the outcomes identical to a sequential sweep. A trace
// recorder goes to experiment 3 only, for offOn's reason: the three runs
// mint the same ReqIDs.
func RunAll(p Params) ([]Outcome, error) {
	out := make([]Outcome, len(Configs))
	errs := make([]error, len(Configs))
	var wg sync.WaitGroup
	for i, s := range Configs {
		p := p
		if s.ID != 3 {
			p.Trace = nil
		}
		wg.Add(1)
		go func(i int, s Setup) {
			defer wg.Done()
			out[i], errs[i] = Run(s, p)
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
