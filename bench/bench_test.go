package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	workloadgen "repro/internal/workload"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %g, %g, want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3, 1, 4, 1, 5 = %g, %g, want 1, 4.5", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %g, %g, want the value", q1, q3)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of none = %g, want 0", got)
	}
}

func TestSelfTimeTakesOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "call", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "call", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "inner", Start: 62, End: 65},
		{ID: 6, Parent: 1, Name: "call", Start: 95, End: 120}, // runs past its parent
	}
	total, self := selfTimes(spans)
	if total["unit"] != 100 || total["call"] != 20+30+10+25 {
		t.Errorf("totals %v", total)
	}
	// Children cover [10,50], [60,70] and [95,100] of the unit.
	if self["unit"] != 100-40-10-5 {
		t.Errorf("unit self time %d, want 45", self["unit"])
	}
	if self["call"] != 20+30+(10-3)+25 {
		t.Errorf("call self time %d, want 82", self["call"])
	}
	if self["inner"] != 3 {
		t.Errorf("inner self time %d, want 3", self["inner"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.all() != nil {
		t.Errorf("nil tracer returned id %d, spans %v", id, tr.all())
	}
}

func TestJudge(t *testing.T) {
	timing := metricDef{Name: "cpu_ms_per_req", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "req_per_s", Better: higher, Bound: 0.10}
	exact := metricDef{Name: "eps_s", Better: higher}
	tight := func(v float64) sample { return sample{median: v, q1: v * 0.99, q3: v * 1.01, n: 10} }
	wide := func(v float64) sample { return sample{median: v, q1: v * 0.9, q3: v * 1.1, n: 10} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b sample
		want string
	}{
		{"equal", timing, tight(100), tight(100), "same"},
		{"slower within bound", timing, tight(100), tight(108), "same"},
		{"slower beyond bound", timing, tight(100), tight(115), "worse"},
		{"faster beyond spread", timing, tight(100), tight(90), "better"},
		{"faster within spread", timing, tight(100), tight(99), "same"},
		{"rate fell", rate, tight(100), tight(85), "worse"},
		{"rate rose", rate, tight(100), tight(120), "better"},
		{"spread wider than bound", timing, wide(100), tight(130), "unresolved"},
		{"statistic repeats", exact, sample{median: -54.7, n: 1}, sample{median: -54.7, n: 1}, "same"},
		{"statistic fell", exact, sample{median: -54.7, n: 1}, sample{median: -54.8, n: 1}, "worse"},
		{"statistic rose", exact, sample{median: -54.7, n: 1}, sample{median: -54.6, n: 1}, "better"},
		{"failures appear", metricDef{Name: "failed_frac", Better: lower}, sample{n: 1}, sample{median: 0.01, n: 1}, "worse"},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	firstSeed, unit, eps := uint64(0), 6000, -54.7
	write := func(name string, cpu ...float64) string {
		f := resultFile{Schema: resultSchema}
		for i, v := range cpu {
			f.Runs = append(f.Runs, runResult{
				Workload: "sim-ga-108", Seed: firstSeed + uint64(i), UnitRequests: unit,
				EndToEnd: map[string]stat{
					"cpu_ms_per_req": {Value: v, Unit: "ms", N: 4},
					"eps_s":          {Value: eps, Unit: "s", N: 1},
				},
				PerLayer: map[string]stat{"pace.predict_ns": {Value: 27, Unit: "ns", N: 1}},
			})
		}
		path := filepath.Join(dir, name)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 0.40, 0.41, 0.42, 0.41)
	same := write("b.json", 0.41, 0.42, 0.40, 0.42)
	slow := write("c.json", 0.60, 0.61, 0.62, 0.61)

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, same)
	if err != nil || worse {
		t.Fatalf("same commit twice: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for _, want := range []string{"sim-ga-108", "cpu_ms_per_req [ms]", "eps_s [s]", "exact", "pace.predict_ns [ns]", "(n=4)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison does not mention %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	worse, err = compareFiles(&out, base, slow)
	if err != nil || !worse {
		t.Fatalf("50%% more CPU per request: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no row says worse:\n%s", out.String())
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing with a missing file succeeded")
	}

	// Other seeds give other simulated statistics: that is not a
	// regression, and the timings are still compared.
	firstSeed, eps = 100, -60.1
	reseeded := write("d.json", 0.41, 0.42, 0.40, 0.42)
	out.Reset()
	worse, err = compareFiles(&out, base, reseeded)
	if err != nil || worse {
		t.Fatalf("same commit under other seeds: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "seeds differ") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("the reseeded statistics are not marked:\n%s", out.String())
	}
	// Units of another size are other work.
	unit = 300
	resized := write("e.json", 0.41, 0.42, 0.40, 0.42)
	if _, err := compareFiles(&out, reseeded, resized); err == nil || !strings.Contains(err.Error(), "not the same work") {
		t.Errorf("comparing units of 6000 requests with units of 300: err=%v", err)
	}
}

func TestUnitSeeds(t *testing.T) {
	if unitSeed(2003, 0) != 2003 {
		t.Error("unit 0 must run the run's own seed, which the fingerprints pin")
	}
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		for i := 0; i < 8; i++ {
			s := unitSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed %d unit %d repeats unit seed %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestWorkloadSpecs(t *testing.T) {
	pins, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.File == "" {
			continue
		}
		unit, err := w.spec(false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		smoke, err := w.spec(true)
		if err != nil {
			t.Fatalf("%s at smoke size: %v", w.Name, err)
		}
		if smoke.Arrivals.Count != unit.Arrivals.Count/smokeShrink {
			t.Errorf("%s: smoke runs %d requests of the unit's %d", w.Name, smoke.Arrivals.Count, unit.Arrivals.Count)
		}
		for _, count := range []int{unit.Arrivals.Count, smoke.Arrivals.Count} {
			pinned := false
			for _, p := range pins[w.Name] {
				pinned = pinned || (p.Seed == defaultSeed && p.Count == count)
			}
			if !pinned {
				t.Errorf("%s: no fingerprint for seed %d at %d requests", w.Name, defaultSeed, count)
			}
		}
	}
}

// TestSetupIsWhatRunDoes holds simSetup, the harness's copy of what
// scenario.Run does before its event loop, to the original: the grid it
// loads, once run, has processed the same events and completed the same
// requests as scenario.Run under the same seed.
func TestSetupIsWhatRunDoes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulator workload twice")
	}
	for _, w := range workloads {
		if w.File == "" {
			continue
		}
		spec, err := w.spec(true)
		if err != nil {
			t.Fatal(err)
		}
		grid, _, err := simSetup(spec, defaultSeed, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := grid.Run(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		spec.Seed = defaultSeed
		want, err := scenario.Run(spec, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := grid.SimEvents(); got != want.SimEvents {
			t.Errorf("%s: the set-up's grid ran %d events, scenario.Run %d", w.Name, got, want.SimEvents)
		}
		if got := len(grid.Records()); got != want.Completed || want.Completed != want.Requests {
			t.Errorf("%s: the set-up's grid completed %d requests, scenario.Run %d of %d", w.Name, got, want.Completed, want.Requests)
		}
		if w.Name == "sim-reserve-300" && want.ResvRequested == 0 {
			t.Errorf("%s: the smoke run reserved nothing, so the reservation split went untested", w.Name)
		}
	}
}

// benchmarkContract is BENCHMARK.json as the acceptance driver reads it.
type benchmarkContract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's own tables and
// to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c benchmarkContract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if strings.Join(c.Command, " ") != "go run -C bench ." {
		t.Errorf("command %q", c.Command)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths %q", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	var wantGated, wantLayer []metricDef
	for _, d := range metricDefs {
		if d.Scope == gated {
			wantGated = append(wantGated, d)
		} else {
			wantLayer = append(wantLayer, d)
		}
	}
	if len(c.EndToEnd) != len(wantGated) || len(c.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, the harness gates %d", len(c.EndToEnd), len(wantGated))
	}
	for i, m := range c.EndToEnd {
		name(m.Name)
		d := wantGated[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("end-to-end %d is %+v, the harness has %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
	}
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", c.EndToEnd[0])
	}
	if len(c.PerLayer) != len(wantLayer) || len(c.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the harness reports %d", len(c.PerLayer), len(wantLayer))
	}
	for i, m := range c.PerLayer {
		name(m.Name)
		d := wantLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d is %+v, the harness has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
	}
}

// TestBrokenInputFailsTheRequest: an input the farm refuses raises the
// failure count; it neither stops the harness nor breaks conservation.
func TestBrokenInputFailsTheRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a TCP farm")
	}
	const count = 60
	u := runFarmUnit(7, count, false, nil, 0, func(reqs []workloadgen.Request) {
		reqs[10].AppName = "no-such-model"
	})
	if u.failed != 1 || u.acks != count-1 {
		t.Fatalf("failed %d, acks %d, want 1 and %d; problems %v", u.failed, u.acks, count-1, u.problems)
	}
	if len(u.problems) != 1 || !strings.Contains(u.problems[0], "no-such-model") {
		t.Errorf("problems %v do not name the broken request", u.problems)
	}
	m := metricSet{}
	u.endToEnd(m)
	if got := m["req_per_s"][0] * u.use.Wall; math.Abs(got-(count-1)) > 1e-6 {
		t.Errorf("throughput counts %g requests, want the %d that succeeded", got, count-1)
	}
}

// TestSmoke runs every workload at 1/20 of its unit, with the full
// checks: audit, completion, the pinned fingerprints, farm conservation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	if err := runSmoke(defaultSeed); err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke took %.1f s", time.Since(start).Seconds())
}

// TestTracedRunReportsEveryMetric runs one simulator workload and the
// farm traced, at smoke size, and checks the verdict line carries every
// metric BENCHMARK.json promises for the mode.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads and probes")
	}
	for _, name := range []string{"sim-reserve-300", "farm-fig7-closed"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{Workload: w, Seed: defaultSeed, Repeat: 1, Smoke: true, Traced: traced, ProbeShrink: 50})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %v", name, traced, res.Problems)
			}
			for _, d := range metricDefs {
				if d.Scope != gated {
					continue
				}
				if s := res.EndToEnd[d.Name]; s.Value <= 0 {
					t.Errorf("%s traced=%v: %s = %g, a gated metric is never 0", name, traced, d.Name, s.Value)
				}
			}
			if !traced {
				continue
			}
			if len(res.Spans) == 0 {
				t.Errorf("%s: a traced run kept no spans", name)
			}
			for _, want := range []string{"telemetry.overhead_frac", "pace.predict_ns", "scheduler.plans_per_req", "runtime.gc_cpu_frac", "harness.self_frac"} {
				if _, ok := res.PerLayer[want]; !ok {
					t.Errorf("%s: traced run lacks %s", name, want)
				}
			}
			if name == "sim-reserve-300" && res.PerLayer["reserve.confirmed"].Value == 0 {
				t.Errorf("%s: no reservation was confirmed", name)
			}
			// A simulator unit is set-up plus scenario.Run, both under
			// spans of their own: nearly none of it is the harness's.
			if self := res.PerLayer["harness.self_frac"].Value; name == "sim-reserve-300" && self > 0.01 {
				t.Errorf("%s: harness.self_frac = %g, the set-up is being charged to the harness", name, self)
			}
			if name == "farm-fig7-closed" && res.PerLayer["transport.exchanges_per_req"].Value < 1 {
				t.Errorf("%s: fewer than one exchange per request", name)
			}
		}
	}
}

func TestVerdictLine(t *testing.T) {
	res := runResult{
		Traced: false, Correct: true, Attempted: 10,
		EndToEnd: map[string]stat{"setup_s": {Value: 0.5}, "req_per_s": {Value: 100}, "eps_s": {Value: -3}},
	}
	check := func(traced bool, want scope) {
		res.Traced = traced
		var out bytes.Buffer
		if err := printVerdict(&out, res); err != nil {
			t.Fatal(err)
		}
		line := out.String()
		var v struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("verdict %q: %v", line, err)
		}
		if v.Correct == nil || v.Attempted == nil || v.Failed == nil {
			t.Fatalf("verdict %q lacks a key", line)
		}
		n := 0
		for _, d := range metricDefs {
			if (d.Scope == gated) != (want == gated) {
				if _, ok := v.Metrics[d.Name]; ok {
					t.Errorf("traced=%v verdict carries %s", traced, d.Name)
				}
				continue
			}
			n++
			if m, ok := v.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v verdict lacks %s in %s", traced, d.Name, d.Unit)
			}
		}
		if len(v.Metrics) != n {
			t.Errorf("traced=%v verdict has %d metrics, want %d", traced, len(v.Metrics), n)
		}
	}
	check(false, gated)
	check(true, layer)
}
