// Benchmark harness: one bench per table and figure of the paper's
// evaluation (§4), plus ablations for the design choices called out in
// DESIGN.md. Table/figure benches report the reproduced metric values via
// b.ReportMetric alongside the usual time/allocs, so `go test -bench`
// regenerates the paper's numbers and measures the implementation at the
// same time.
//
// Paper-to-bench map:
//
//	Table 1  -> BenchmarkTable1PACEPredictions
//	Table 2  -> encoded in experiment.Configs (see BenchmarkTable3Experiments subbenches)
//	Table 3  -> BenchmarkTable3Experiments
//	Fig. 2   -> BenchmarkFig2ScheduleBuild (the coding scheme at work)
//	Fig. 8   -> BenchmarkFig8AdvanceTimeTrends
//	Fig. 9   -> BenchmarkFig9UtilisationTrends
//	Fig. 10  -> BenchmarkFig10LoadBalanceTrends
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchParams is the workload used by the experiment benches: half the
// paper's request phase, which saturates the grid the same way at a
// fraction of the bench time.
func benchParams() experiment.Params {
	p := experiment.DefaultParams()
	p.Requests = 300
	return p
}

// runStudy runs a study's labelled runs through the one study runner.
func runStudy(b *testing.B, runs ...experiment.Run) []experiment.Outcome {
	b.Helper()
	outs, err := experiment.RunStudy(runs, scenario.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return outs
}

// BenchmarkTable1PACEPredictions regenerates the Table 1 matrix: all
// seven application models evaluated over 1..16 processors on the
// reference platform (uncached, so the evaluation pipeline itself is
// measured).
func BenchmarkTable1PACEPredictions(b *testing.B) {
	lib := pace.CaseStudyLibrary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := pace.NewEngineWithoutCache()
		for _, m := range lib.Models() {
			for n := 1; n <= 16; n++ {
				if _, err := engine.Predict(m, pace.SGIOrigin2000, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable3Experiments runs each Table 2 configuration over the
// identical seed-fixed workload and reports the Table 3 grid-wide rows:
// ε (eps_s), υ (ups_pct) and β (beta_pct).
func BenchmarkTable3Experiments(b *testing.B) {
	for _, run := range benchParams().CaseStudyRuns() {
		cfg := run.Setup
		b.Run(fmt.Sprintf("exp%d_%s", cfg.ID, cfg.Policy), func(b *testing.B) {
			var out experiment.Outcome
			for i := 0; i < b.N; i++ {
				out = runStudy(b, run)[0]
			}
			b.ReportMetric(out.Report.Total.Epsilon, "eps_s")
			b.ReportMetric(out.Report.Total.Upsilon, "ups_pct")
			b.ReportMetric(out.Report.Total.Beta, "beta_pct")
		})
	}
}

// trendBench runs all three experiments and reports one §3.3 metric per
// experiment — the data series behind one of Figs. 8–10.
func trendBench(b *testing.B, metric func(o experiment.Outcome) float64, unit string) {
	b.Helper()
	var outs []experiment.Outcome
	for i := 0; i < b.N; i++ {
		outs = runStudy(b, benchParams().CaseStudyRuns()...)
	}
	for _, o := range outs {
		b.ReportMetric(metric(o), fmt.Sprintf("exp%d_%s", o.Setup.ID, unit))
	}
}

// BenchmarkFig8AdvanceTimeTrends regenerates the Fig. 8 series: grid-wide
// ε across experiments 1..3.
func BenchmarkFig8AdvanceTimeTrends(b *testing.B) {
	trendBench(b, func(o experiment.Outcome) float64 { return o.Report.Total.Epsilon }, "eps_s")
}

// BenchmarkFig9UtilisationTrends regenerates the Fig. 9 series: grid-wide
// υ across experiments 1..3.
func BenchmarkFig9UtilisationTrends(b *testing.B) {
	trendBench(b, func(o experiment.Outcome) float64 { return o.Report.Total.Upsilon }, "ups_pct")
}

// BenchmarkFig10LoadBalanceTrends regenerates the Fig. 10 series:
// grid-wide β across experiments 1..3.
func BenchmarkFig10LoadBalanceTrends(b *testing.B) {
	trendBench(b, func(o experiment.Outcome) float64 { return o.Report.Total.Beta }, "beta_pct")
}

// BenchmarkFig2ScheduleBuild measures the two-part coding scheme end to
// end: build the Fig. 2-scale schedule from a solution string, the inner
// loop of every GA cost evaluation. A Problem reuses its schedule and gap
// record across builds, as the GA's cost path does.
func BenchmarkFig2ScheduleBuild(b *testing.B) {
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	pred := func(app *pace.AppModel, k int) float64 {
		return engine.MustPredict(app, pace.SGIOrigin2000, k)
	}
	rng := sim.NewRNG(1)
	names := lib.Names()
	tasks := make([]schedule.Task, 20)
	for i := range tasks {
		m, _ := lib.Lookup(names[i%len(names)])
		tasks[i] = schedule.Task{ID: i, App: m, Deadline: 1e9}
	}
	p := schedule.NewProblem(tasks, schedule.NewResource(16), 0, pred)
	sol := schedule.NewRandomSolution(len(tasks), 16, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := p.Build(sol); s.Makespan <= 0 {
			b.Fatal("empty schedule")
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationLocalScheduler compares the local policies head to
// head on one overloaded resource: Table 3's experiment 1 vs 2 effect in
// isolation.
func BenchmarkAblationLocalScheduler(b *testing.B) {
	run := func(b *testing.B, mk func() scheduler.Policy) {
		lib := pace.CaseStudyLibrary()
		names := lib.Names()
		var eps float64
		for i := 0; i < b.N; i++ {
			engine := pace.NewEngine()
			local, err := scheduler.NewLocal(scheduler.Config{
				Name: "S", HW: pace.SunUltra1, NumNodes: 16,
				Policy: mk(), Engine: engine,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(7)
			for j := 0; j < 50; j++ {
				m, _ := lib.Lookup(names[rng.Intn(len(names))])
				deadline := float64(j) + rng.UniformIn(m.DeadlineLo, m.DeadlineHi)
				if _, err := local.Submit(m, deadline, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
			local.Drain()
			var adv float64
			for _, r := range local.Records() {
				adv += r.Deadline - r.End
			}
			eps = adv / float64(len(local.Records()))
		}
		b.ReportMetric(eps, "eps_s")
	}
	b.Run("fifo", func(b *testing.B) {
		run(b, func() scheduler.Policy { return scheduler.NewFIFOPolicy() })
	})
	b.Run("ga", func(b *testing.B) {
		run(b, func() scheduler.Policy { return scheduler.NewGAPolicy(ga.DefaultConfig(), sim.NewRNG(1)) })
	})
}

// BenchmarkAblationAgentDiscovery isolates the agent layer: the same GA
// grid with discovery off (experiment 2) and on (experiment 3).
func BenchmarkAblationAgentDiscovery(b *testing.B) {
	for _, agents := range []bool{false, true} {
		agents := agents
		name := "off"
		if agents {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var beta float64
			for i := 0; i < b.N; i++ {
				run := benchParams().CaseStudyRuns()[1]
				if agents {
					run = benchParams().CaseStudyRuns()[2]
				}
				beta = runStudy(b, run)[0].Report.Total.Beta
			}
			b.ReportMetric(beta, "beta_pct")
		})
	}
}

// BenchmarkAblationEvalCache reproduces the §2.2 cache argument: the same
// GA scheduling workload against a cached and an uncached evaluation
// engine, reporting actual model evaluations performed. The paper's
// example: 1000 evaluations/generation at ~0.01 s would cost 10 s per
// generation without reuse.
func BenchmarkAblationEvalCache(b *testing.B) {
	run := func(b *testing.B, cached bool) {
		lib := pace.CaseStudyLibrary()
		names := lib.Names()
		var evals, hits uint64
		for i := 0; i < b.N; i++ {
			var engine *pace.Engine
			if cached {
				engine = pace.NewEngine()
			} else {
				engine = pace.NewEngineWithoutCache()
			}
			local, err := scheduler.NewLocal(scheduler.Config{
				Name: "S", HW: pace.SunUltra5, NumNodes: 16,
				Policy: scheduler.NewGAPolicy(ga.DefaultConfig(), sim.NewRNG(1)),
				Engine: engine,
			})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 20; j++ {
				m, _ := lib.Lookup(names[j%len(names)])
				if _, err := local.Submit(m, 1e9, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
			local.Drain()
			evals = engine.Stats().Evaluations
			hits = engine.Stats().CacheHits
		}
		b.ReportMetric(float64(evals), "evals")
		b.ReportMetric(float64(hits), "cache_hits")
		b.ReportMetric(pace.EvalStats{Evaluations: evals}.SimulatedCost(pace.DefaultEvalCost), "simcost_s")
	}
	b.Run("cached", func(b *testing.B) { run(b, true) })
	b.Run("uncached", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationIdleWeighting compares front-weighted idle time (§2.1)
// against plain idle time on the full experiment-2 grid.
func BenchmarkAblationIdleWeighting(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		var eps float64
		for i := 0; i < b.N; i++ {
			eps = fig7Epsilon(b, core.Options{Policy: core.PolicyGA, DisableFrontWeightedIdle: disable})
		}
		b.ReportMetric(eps, "eps_s")
	}
	b.Run("front-weighted", func(b *testing.B) { run(b, false) })
	b.Run("uniform", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationAdvertPeriod sweeps the §4.1 ten-second advertisement
// pull period: staler advertisements mean worse placement.
func BenchmarkAblationAdvertPeriod(b *testing.B) {
	for _, period := range []float64{1, 10, 60, 300} {
		period := period
		b.Run(fmt.Sprintf("%.0fs", period), func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				eps = fig7Epsilon(b, core.Options{Policy: core.PolicyGA, UseAgents: true, PullPeriod: period})
			}
			b.ReportMetric(eps, "eps_s")
		})
	}
}

// BenchmarkAblationGABudget sweeps the GA generation budget per
// scheduling event.
func BenchmarkAblationGABudget(b *testing.B) {
	for _, gens := range []int{5, 15, 30, 60} {
		gens := gens
		b.Run(fmt.Sprintf("gens%d", gens), func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				p := benchParams()
				// A window longer than the budget never fires: the GA
				// runs all gens generations (no early stop).
				p.GA.MaxGenerations = gens
				p.GA.ConvergenceWindow = gens + 1
				eps = runStudy(b, p.CaseStudyRuns()[1])[0].Report.Total.Epsilon
			}
			b.ReportMetric(eps, "eps_s")
		})
	}
}

// BenchmarkAblationFIFOSearch compares the paper's exhaustive allocation
// search (the best of all 2^n−1 allocations, node set and all) with the
// homogeneity-aware fast path.
func BenchmarkAblationFIFOSearch(b *testing.B) {
	lib := pace.CaseStudyLibrary()
	names := lib.Names()
	run := func(b *testing.B, policy core.PolicyKind) {
		for i := 0; i < b.N; i++ {
			engine := pace.NewEngine()
			var pol scheduler.Policy
			if policy == core.PolicyFIFO {
				pol = scheduler.NewFIFOPolicy()
			} else {
				pol = scheduler.NewFastFIFOPolicy()
			}
			local, err := scheduler.NewLocal(scheduler.Config{
				Name: "S", HW: pace.SGIOrigin2000, NumNodes: 16,
				Policy: pol, Engine: engine,
			})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 60; j++ {
				m, _ := lib.Lookup(names[j%len(names)])
				if _, err := local.Submit(m, 1e9, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
			local.Drain()
		}
	}
	b.Run("exhaustive", func(b *testing.B) { run(b, core.PolicyFIFO) })
	b.Run("fast", func(b *testing.B) { run(b, core.PolicyFIFOFast) })
}

// --- Extension studies (§5 future work) ---

// BenchmarkExtensionPredictionAccuracy runs the §5 prediction-accuracy
// study: exact predictions vs systematically optimistic models.
func BenchmarkExtensionPredictionAccuracy(b *testing.B) {
	cases := []experiment.NoiseCase{{Rel: 0, Bias: 0}, {Rel: 0.2, Bias: 0.25}}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("rel%.0f_bias%.0f", c.Rel*100, c.Bias*100), func(b *testing.B) {
			var pt experiment.Outcome
			for i := 0; i < b.N; i++ {
				pt = runStudy(b, benchParams().AccuracyRuns([]experiment.NoiseCase{c})...)[0]
			}
			b.ReportMetric(pt.Epsilon, "eps_s")
			b.ReportMetric(pt.HitRate*100, "met_pct")
		})
	}
}

// BenchmarkExtensionScalability runs the §5 scalability study at two grid
// sizes, reporting discovery locality.
func BenchmarkExtensionScalability(b *testing.B) {
	for _, n := range []int{12, 24} {
		n := n
		b.Run(fmt.Sprintf("agents%d", n), func(b *testing.B) {
			var pt experiment.Outcome
			for i := 0; i < b.N; i++ {
				p := experiment.DefaultParams()
				p.Requests = 0 // study derives its own counts
				pt = runStudy(b, p.ScaleRuns([]int{n}, 3, 25)...)[0]
			}
			b.ReportMetric(pt.MeanHops, "mean_hops")
			b.ReportMetric(pt.Beta, "beta_pct")
		})
	}
}

// BenchmarkAblationPushAdverts compares pull-only advertisement at a
// starved period against pull+event-triggered push (§3.1 strategies).
func BenchmarkAblationPushAdverts(b *testing.B) {
	run := func(b *testing.B, push bool) {
		var eps float64
		for i := 0; i < b.N; i++ {
			eps = fig7Epsilon(b, core.Options{Policy: core.PolicyGA, UseAgents: true, PullPeriod: 120, PushAdverts: push})
		}
		b.ReportMetric(eps, "eps_s")
	}
	b.Run("pull-only", func(b *testing.B) { run(b, false) })
	b.Run("pull+push", func(b *testing.B) { run(b, true) })
}

// fig7Epsilon runs benchParams' §4.1 workload over the Fig. 7 grid
// built with opts — core knobs a scenario spec does not carry — and
// returns the grid-wide ε over the request phase. It is the one run path
// left outside scenario.Run: the ablations toggle DisableFrontWeightedIdle,
// PullPeriod and PushAdverts, which are not spec fields.
func fig7Epsilon(b *testing.B, opts core.Options) float64 {
	b.Helper()
	p := benchParams()
	opts.GA, opts.Seed = scenario.DefaultGA(), p.Seed
	grid, err := core.New(scenario.Fig7Resources(), opts)
	if err != nil {
		b.Fatal(err)
	}
	names, err := scenario.Fig7().Topology.AgentNames()
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.CaseStudySpec(p.Seed, names)
	spec.Count = p.Requests
	reqs, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := grid.SubmitWorkload(reqs); err != nil {
		b.Fatal(err)
	}
	if err := grid.Run(); err != nil {
		b.Fatal(err)
	}
	rep, err := grid.Metrics(float64(p.Requests))
	if err != nil {
		b.Fatal(err)
	}
	return rep.Total.Epsilon
}

// --- Micro-benchmark (the per-layer probes live in bench/probes.go) ---

// BenchmarkCrossover measures the two-part crossover operator.
func BenchmarkCrossover(b *testing.B) {
	rng := sim.NewRNG(1)
	x := schedule.NewRandomSolution(32, 16, rng)
	y := schedule.NewRandomSolution(32, 16, rng)
	var c, d schedule.Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedule.Crossover(&c, &d, x, y, 16, rng)
		if len(c.Order) != 32 || len(d.Order) != 32 {
			b.Fatal("bad children")
		}
	}
}
