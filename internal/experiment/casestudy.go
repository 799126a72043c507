// Package experiment reproduces the paper's case study (§4): the twelve-
// resource grid of Fig. 7, the three load-balancing configurations of
// Table 2, and the reports behind Table 3 and Figs. 8–10.
package experiment

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CaseStudyResources returns the Fig. 7 grid: twelve agents S1..S12, each
// representing a heterogeneous resource of sixteen homogeneous nodes,
// ranging from SGI Origin 2000 (most powerful) down to Sun SPARCstation 2.
// The topology itself lives in internal/scenario (the "fig7" preset), so
// the scenario engine and the Table 2/3 experiments are guaranteed to
// run the same grid.
func CaseStudyResources() []core.ResourceSpec {
	return scenario.Fig7Resources()
}

// AgentNames returns S1..S12 in figure order.
func AgentNames() []string {
	specs := CaseStudyResources()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

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
type Params struct {
	Seed     uint64
	Requests int     // §4.1 uses 600
	Interval float64 // §4.1 uses 1 s
	GA       ga.Config
	Workers  int             // GA cost-evaluation workers per policy; ≤1 sequential, results identical either way
	Trace    *trace.Recorder // optional lifecycle recorder; holds one run (RunAll: experiment 3's)
	Audit    bool            // run the lifecycle auditor over each experiment
	// Telemetry instruments each experiment on its own fresh registry
	// (RunAll runs experiments concurrently, so a shared registry would
	// mix their totals) and attaches the export to Outcome.Telemetry.
	// Observing only: Table 1/Table 3 numbers are identical either way.
	Telemetry    bool
	SamplePeriod float64 // series period in virtual seconds; <= 0 → 10 s
}

// DefaultParams returns the §4.1 case-study parameters. The GA knobs
// come from scenario.DefaultGA so scenario runs and the Table 2/3
// experiments stay in lockstep.
func DefaultParams() Params {
	return Params{Seed: 2003, Requests: 600, Interval: 1, GA: scenario.DefaultGA()}
}

// QuickParams returns a reduced workload for tests: half the request
// phase. The grid must still saturate for the Table 3 orderings to
// emerge, so the reduction is modest.
func QuickParams() Params {
	p := DefaultParams()
	p.Requests = 300
	p.GA.MaxGenerations = 15
	p.GA.ConvergenceWindow = 5
	return p
}

// Outcome is one experiment's results.
type Outcome struct {
	Setup      Setup
	Report     metrics.GridReport
	Dispatches []agent.Dispatch
	Records    []scheduler.Record
	EvalStats  pace.EvalStats
	Requests   int
	Audit      *audit.Result     // set when Params.Audit is on
	Telemetry  *telemetry.Export // set when Params.Telemetry is on
}

// workload returns the §4.1 request stream at the params' size.
func (p Params) workload() workload.Spec {
	spec := workload.CaseStudySpec(p.Seed, AgentNames())
	spec.Count = p.Requests
	spec.Interval = p.Interval
	return spec
}

// phase is the §4.1 request phase length, the measurement-window floor.
func (p Params) phase() float64 { return float64(p.Requests) * p.Interval }

// run is the one run path of this package: build the grid, submit the
// generated workload, run it and reduce it to an Outcome. opts carries
// what distinguishes the study (policy, noise, fault plan, churn, ...);
// GA, workers, seed, trace, telemetry and audit come from p. The audit
// streams into an audit.Observer, as scenario.Run's does. minWindow <= 0
// selects the stream's own span (an open arrival process only knows its
// last arrival). The grid is returned for the per-study statistics.
func (p Params) run(resources []core.ResourceSpec, opts core.Options, spec workload.Spec, minWindow float64) (Outcome, *core.Grid, error) {
	opts.GA, opts.Workers, opts.Seed, opts.Trace = p.GA, p.Workers, p.Seed, p.Trace
	if p.Telemetry {
		// A fresh registry per run: RunAll runs experiments concurrently
		// and their totals must not mix.
		opts.Telemetry = telemetry.NewRegistry()
		opts.SamplePeriod = p.SamplePeriod
	}
	if p.Audit {
		opts.Audit = audit.NewObserver(core.NodeCounts(resources, opts.Churn))
	}
	grid, err := core.New(resources, opts)
	if err != nil {
		return Outcome{}, nil, err
	}
	reqs, err := workload.Generate(spec)
	if err != nil {
		return Outcome{}, nil, err
	}
	if err := grid.SubmitWorkload(reqs); err != nil {
		return Outcome{}, nil, err
	}
	if err := grid.Run(); err != nil {
		return Outcome{}, nil, err
	}
	if minWindow <= 0 {
		minWindow = workload.Summarise(reqs).Span
	}
	recs := grid.Records()
	report, err := grid.MetricsOver(recs, minWindow)
	if err != nil {
		return Outcome{}, nil, err
	}
	out := Outcome{
		Report:     report,
		Dispatches: grid.Dispatches(),
		Records:    recs,
		EvalStats:  grid.Engine().Stats(),
		Requests:   len(reqs),
		Telemetry:  grid.TelemetryExport(),
	}
	if opts.Audit != nil {
		res := opts.Audit.Finish(report, 0)
		out.Audit = &res
	}
	return out, grid, nil
}

// offOn runs one case-study configuration twice over the identical
// workload — the feature under study off, then on — so any delta is the
// feature's. An external trace recorder goes to the on run only: one
// recorder must never hold two runs' events (the ReqIDs collide and the
// audit would see every task executed twice).
func (p Params) offOn(setup Setup, off, on core.Options, spec workload.Spec, minWindow float64) (Outcome, Outcome, *core.Grid, error) {
	pOff := p
	pOff.Trace = nil
	a, _, err := pOff.run(CaseStudyResources(), off, spec, minWindow)
	if err != nil {
		return Outcome{}, Outcome{}, nil, fmt.Errorf("experiment %d (off): %w", setup.ID, err)
	}
	b, grid, err := p.run(CaseStudyResources(), on, spec, minWindow)
	if err != nil {
		return Outcome{}, Outcome{}, nil, fmt.Errorf("experiment %d (on): %w", setup.ID, err)
	}
	a.Setup, b.Setup = setup, setup
	return a, b, grid, nil
}

// Run executes one experiment configuration against the case-study grid
// and workload.
func Run(setup Setup, p Params) (Outcome, error) {
	out, _, err := p.run(CaseStudyResources(),
		core.Options{Policy: setup.Policy, UseAgents: setup.UseAgents}, p.workload(), p.phase())
	if err != nil {
		return Outcome{}, fmt.Errorf("experiment %d: %w", setup.ID, err)
	}
	out.Setup = setup
	return out, nil
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
