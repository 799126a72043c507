// Command gridexp reproduces the paper's case study: the Table 1
// prediction matrix, the Table 2 experiment design, the Table 3 results
// and the Figs. 8–10 trend series, over the twelve-agent grid of Fig. 7.
//
// Usage:
//
//	gridexp                  # run all three experiments, print every table
//	gridexp -table1          # only the PACE prediction matrix
//	gridexp -table3 -fig10   # selected outputs
//	gridexp -requests 120    # reduced workload
//	gridexp -topology        # print the Fig. 7 agent hierarchy
//
// Scenario mode (the declarative layer of internal/scenario):
//
//	gridexp -scenario examples/scenarios/fig7.json              # one audited run
//	gridexp -scenario s.json -sweep rate=0.5,1,2 -out sweep.json
//	gridexp -scenario s.json -find-saturation                   # capacity search
//
// Any mode accepts -out results.json to export every study run as
// machine-readable JSON instead of scraping the printed tables: one
// {"runs": [{"label", "spec", "result"}, ...]} list in study order, whose
// every spec is a scenario file that `gridexp -scenario` re-runs to the
// same result. Scenario mode reads only its own flags and rejects the
// experiment ones (-seed, -requests, -table3, -exp4, ...); the spec sets
// the run. Any mode also accepts -cpuprofile / -memprofile to say where
// the run's time and memory went:
//
//	gridexp -scenario examples/scenarios/mega-smoke.json -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	table1   = flag.Bool("table1", false, "print the Table 1 prediction matrix")
	table2   = flag.Bool("table2", false, "print the Table 2 experiment design")
	table3   = flag.Bool("table3", false, "run the experiments and print Table 3")
	fig8     = flag.Bool("fig8", false, "print the Fig. 8 advance-time trends")
	fig9     = flag.Bool("fig9", false, "print the Fig. 9 utilisation trends")
	fig10    = flag.Bool("fig10", false, "print the Fig. 10 load-balance trends")
	topology = flag.Bool("topology", false, "print the Fig. 7 agent hierarchy")
	dispatch = flag.Bool("dispatch", false, "print the per-resource dispatch counts")
	stats    = flag.Bool("stats", false, "print per-application statistics and the lateness distribution per experiment")
	accuracy = flag.Bool("accuracy", false, "run the §5 prediction-accuracy study")
	scale    = flag.Bool("scale", false, "run the §5 scalability study on synthetic hierarchies")
	exp4     = flag.Bool("exp4", false, "run Experiment 4: the resilience study under agent crashes")
	exp5     = flag.Bool("exp5", false, "run Experiment 5: drift-driven migration off a degraded node, off vs on")
	exp6     = flag.Bool("exp6", false, "run Experiment 6: the advance-reservation admission study over reserved-traffic shares")
	exp7     = flag.Bool("exp7", false, "run Experiment 7: dynamic hierarchy under churn and flash crowd, static vs rebalanced tree")
	auditRun = flag.Bool("audit", false, "print every run's audit verdict, clean ones included (every run is audited; a violation always prints and exits non-zero)")
	traceOut = flag.String("tracefile", "", "write the experiment-3 request lifecycle trace as CSV to this file")
	requests = flag.Int("requests", 600, "number of task requests (§4.1 uses 600)")
	seed     = flag.Uint64("seed", 2003, "workload and GA seed")

	scenarioPath = flag.String("scenario", "", "run the scenario described by this JSON spec (see examples/scenarios/)")
	sweepArg     = flag.String("sweep", "", "with -scenario: sweep one axis, e.g. rate=0.5,1,2 or agents=12,24,48")
	findSat      = flag.Bool("find-saturation", false, "with -scenario: binary-search the arrival rate where ε crosses zero")
	outPath      = flag.String("out", "", "export every study run (label, spec, result) as JSON to this file")

	telemetryOut = flag.String("telemetry", "", "instrument the runs and write the telemetry exports (registry snapshot + virtual-time series) as JSON to this file; results are byte-identical with or without it")
	samplePeriod = flag.Float64("sample-period", 10, "telemetry series sampling period in virtual seconds")

	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile = flag.String("memprofile", "", "write the allocation profile of the whole run to this file when it ends")
)

func main() {
	flag.Parse()
	rejectUnread()
	fail(startProfiles(*cpuProfile, *memProfile))
	defer stopProfiles()

	opt := scenario.RunOptions{Telemetry: *telemetryOut != "", SamplePeriod: *samplePeriod}
	doc := exportDoc{Runs: []experiment.Outcome{}}
	var studies []study
	if *scenarioPath != "" {
		studies, doc.Saturation = scenarioStudies(opt)
	} else {
		studies = experimentStudies()
	}

	// One loop runs, reports, audits and exports every study. A clean
	// verdict prints only under -audit; a violation always prints and
	// turns into a non-zero exit.
	telemetryExports := map[string]*telemetry.Export{}
	telemetryKey := strings.NewReplacer(" ", "_", "=", "_")
	auditFailed := false
	for _, st := range studies {
		fmt.Println(st.header)
		o := opt
		closeTrace := func() {}
		if st.traced && *traceOut != "" {
			o.Trace, closeTrace = streamTrace(*traceOut)
		}
		start := time.Now()
		outs, err := experiment.RunStudy(st.runs, o)
		fail(err)
		closeTrace()
		fmt.Printf("(completed in %v wall time)\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(st.report(outs))
		for _, out := range outs {
			auditFailed = verdict("["+out.Label+"]", out.Audit, *auditRun) || auditFailed
			if out.Telemetry != nil {
				telemetryExports[telemetryKey.Replace(out.Label)] = out.Telemetry
			}
		}
		if *outPath != "" { // an outcome holds its run's records: keep it only to export it
			doc.Runs = append(doc.Runs, outs...)
		}
	}
	if *outPath != "" {
		fail(writeFile(*outPath, "results", indentedJSON(doc)))
	}
	if *telemetryOut != "" {
		fail(writeFile(*telemetryOut, "telemetry", indentedJSON(telemetryExports)))
	}
	if auditFailed {
		exit(1)
	}
}

// scenarioFlags are the flags scenario mode reads; the spec sets
// everything else.
var scenarioFlags = map[string]bool{
	"scenario": true, "sweep": true, "find-saturation": true, "out": true,
	"telemetry": true, "sample-period": true, "tracefile": true,
	"audit": true, "cpuprofile": true, "memprofile": true,
}

// rejectUnread fails on any explicitly set flag the selected mode does
// not read, instead of running something other than what was asked.
func rejectUnread() {
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *scenarioPath != "" && !scenarioFlags[f.Name]:
			fail(fmt.Errorf("-%s is an experiment flag: a -scenario run takes its settings from the spec", f.Name))
		case *scenarioPath == "" && (f.Name == "sweep" || f.Name == "find-saturation"):
			fail(fmt.Errorf("-sweep and -find-saturation need a -scenario spec"))
		case f.Name == "sample-period" && *telemetryOut == "":
			fail(fmt.Errorf("-sample-period sets the period of the -telemetry series: add -telemetry"))
		}
	})
}

// scenarioStudies loads the -scenario spec and returns its study: one
// traced run labelled "scenario", or one run per -sweep point labelled
// by its axis value. A -find-saturation search is adaptive rather than a
// fixed list of runs, so it runs here, leaves no study and returns its
// result.
func scenarioStudies(opt scenario.RunOptions) ([]study, *scenario.SaturationResult) {
	spec, err := scenario.Load(*scenarioPath)
	fail(err)
	switch {
	case *findSat && *sweepArg != "":
		fail(fmt.Errorf("-sweep and -find-saturation are two studies: pick one"))
	case *traceOut != "" && (*sweepArg != "" || *findSat):
		fail(fmt.Errorf("-tracefile records a single scenario run, not a sweep or saturation search"))
	case *findSat && *telemetryOut != "":
		fail(fmt.Errorf("-telemetry exports study runs, not the probes of a saturation search"))
	case *findSat:
		fmt.Printf("Searching for the saturation rate of %s\n", spec.Name)
		res, err := scenario.FindSaturation(spec, opt, 0)
		fail(err)
		fmt.Println(scenario.FormatSaturation(res))
		return nil, &res
	case *sweepArg == "":
		return []study{{
			header: "Running scenario " + spec.Name,
			runs:   []experiment.Run{{Label: "scenario", Spec: spec}},
			traced: true,
			report: func(o []experiment.Outcome) string { return scenario.FormatResult(o[0].Result) },
		}}, nil
	}
	axis, values, err := scenario.ParseAxis(*sweepArg)
	fail(err)
	specs, err := scenario.SweepSpecs(spec, axis, values)
	fail(err)
	runs := make([]experiment.Run, len(specs))
	for i, s := range specs {
		runs[i] = experiment.Run{Label: fmt.Sprintf("%s=%g", axis, values[i]), Spec: s}
	}
	return []study{{
		header: fmt.Sprintf("Sweeping %s over %s (%d points)", spec.Name, axis, len(values)),
		runs:   runs,
		report: func(o []experiment.Outcome) string { return "\n" + experiment.FormatSweep(o, axis, values) },
	}}, nil
}

// experimentStudies prints the tables that need no run (Table 1, Table 2,
// the hierarchy) and returns the studies the experiment flags select.
func experimentStudies() []study {
	extension := *accuracy || *scale || *exp4 || *exp5 || *exp6 || *exp7
	all := !(*table1 || *table2 || *table3 || *fig8 || *fig9 || *fig10 || *topology || *dispatch || *stats || extension)
	// Table 2's experiments 1–3 run whenever an output needs them;
	// `gridexp -audit` alone still means "audit the experiments".
	caseStudy := all || *table3 || *fig8 || *fig9 || *fig10 || *dispatch || *stats || (*auditRun && !extension)
	if *traceOut != "" && !caseStudy {
		fail(fmt.Errorf("-tracefile records experiment 3: select a Table 2 output (-table3, -fig8..10, -dispatch or -stats)"))
	}

	if all || *table1 {
		engine := pace.NewEngine()
		out, err := experiment.FormatTable1(pace.CaseStudyLibrary(), engine, pace.SGIOrigin2000, 16)
		fail(err)
		fmt.Println(out)
	}
	if all || *table2 {
		fmt.Println(experiment.FormatTable2())
	}
	if all || *topology {
		grid, err := core.New(scenario.Fig7Resources(), core.Options{})
		fail(err)
		fmt.Println("Agent hierarchy (Fig. 7):")
		fmt.Println(grid.Hierarchy().Describe())
	}

	params := experiment.DefaultParams()
	params.Requests = *requests
	params.Seed = *seed
	phase := float64(params.Requests) * params.Interval
	// Each selected study prints its header, then its report: the
	// accuracy and scale tables right under the wall-time line, the
	// others after a blank line. Experiments 1–3 run last.
	var studies []study
	if *accuracy {
		studies = append(studies, study{
			header: fmt.Sprintf("Running prediction-accuracy study: %d requests, seed %d", params.Requests, params.Seed),
			runs:   params.AccuracyRuns(experiment.DefaultNoiseCases()),
			report: experiment.FormatAccuracy,
		})
	}
	if *scale {
		studies = append(studies, study{
			header: fmt.Sprintf("Running scalability study (seed %d)", params.Seed),
			runs:   params.ScaleRuns([]int{6, 12, 24, 48}, 3, 50),
			report: experiment.FormatScalability,
		})
	}
	if *exp4 {
		plan := experiment.ScaledFaultPlan(phase)
		studies = append(studies, study{
			header: fmt.Sprintf("Running experiment 4 (resilience): %d requests, seed %d, %d fault events",
				params.Requests, params.Seed, len(plan.Events)),
			runs:   params.ResilienceRuns(plan),
			report: func(o []experiment.Outcome) string { return "\n" + experiment.FormatResilience(o, *auditRun) },
		})
	}
	if *exp5 {
		studies = append(studies, study{
			header: fmt.Sprintf("Running experiment 5 (migration): %d requests, seed %d, degraded resource S2",
				params.Requests, params.Seed),
			runs:   params.MigrationRuns(experiment.ScaledDegradedPlan(phase), experiment.DefaultMigrationPolicy()),
			report: func(o []experiment.Outcome) string { return "\n" + experiment.FormatMigration(o, *auditRun) },
		})
	}
	if *exp6 {
		shares := experiment.DefaultReservationShares()
		studies = append(studies, study{
			header: fmt.Sprintf("Running experiment 6 (reservations): %d requests, seed %d, shares %v",
				params.Requests, params.Seed, shares),
			runs:   params.ReservationRuns(shares),
			report: func(o []experiment.Outcome) string { return "\n" + experiment.FormatReservation(o) },
		})
	}
	if *exp7 {
		plan := experiment.DefaultChurnPlan()
		studies = append(studies, study{
			header: fmt.Sprintf("Running experiment 7 (dynamic hierarchy): %d requests, seed %d, %d joins / %d leaves",
				params.Requests, params.Seed, len(plan.Joins), len(plan.Leaves)),
			runs:   params.MembershipRuns(plan, experiment.DefaultRebalancePolicy()),
			report: func(o []experiment.Outcome) string { return "\n" + experiment.FormatMembership(o, *auditRun) },
		})
	}
	if caseStudy {
		studies = append(studies, study{
			header: fmt.Sprintf("Running experiments 1-3: %d requests at %gs intervals, seed %d",
				params.Requests, params.Interval, params.Seed),
			runs:   params.CaseStudyRuns(),
			traced: true,
			report: func(o []experiment.Outcome) string {
				var b strings.Builder
				add := func(show bool, s string) {
					if show {
						b.WriteString("\n" + s)
					}
				}
				add(all || *table3, experiment.FormatTable3(o))
				add(all || *fig8, experiment.FormatTrends(o, experiment.TrendEpsilon))
				add(all || *fig9, experiment.FormatTrends(o, experiment.TrendUpsilon))
				add(all || *fig10, experiment.FormatTrends(o, experiment.TrendBeta))
				add(all || *dispatch, experiment.FormatDispatchSummary(o))
				for _, e := range o {
					add(*stats, fmt.Sprintf("=== experiment %d (%s) ===\n%s", e.Setup.ID, e.Setup.Label, metrics.FormatStats(e.Records)))
				}
				return b.String()
			},
		})
	}
	return studies
}

// study is one flag-selected study: the header announcing it, its
// labelled runs and the report over their outcomes. A traced study's
// last run streams to -tracefile.
type study struct {
	header string
	runs   []experiment.Run
	traced bool
	report func([]experiment.Outcome) string
}

// verdict prints a run's audit result — a clean one only when loud —
// and reports whether any invariant broke.
func verdict(scope string, res *audit.Result, loud bool) bool {
	if res.OK() && !loud {
		return false
	}
	fmt.Printf("%s %s\n", scope, res.Summary())
	if res.OK() {
		return false
	}
	limit := len(res.Violations)
	if limit > 10 {
		limit = 10
	}
	for _, v := range res.Violations[:limit] {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	if len(res.Violations) > limit {
		fmt.Printf("  ... and %d more\n", len(res.Violations)-limit)
	}
	return true
}

// streamTrace returns a recorder that streams one run's lifecycle trace
// to path as CSV, and the function that drains and closes the file once
// the run has finished. The recorder retains nothing: it feeds a sink
// that flushes rows as the grid's virtual-time watermark passes them, so
// a 1M-request trace never holds the run in memory.
func streamTrace(path string) (*trace.Recorder, func()) {
	f, err := os.Create(path)
	fail(err)
	sink := trace.NewCSVSink(f)
	rec := trace.NewRecorder(1)
	rec.SetRetention(false)
	rec.AddSink(sink)
	return rec, func() {
		fail(sink.Close(0))
		fail(f.Close())
		fmt.Printf("lifecycle trace streamed to %s (peak reorder buffer %d events)\n", path, sink.PeakBuffered())
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridexp:", err)
		exit(1)
	}
}
