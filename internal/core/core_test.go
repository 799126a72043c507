package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ga"
	"repro/internal/trace"
	"repro/internal/workload"
)

func smallGrid(t testing.TB, opts Options) *Grid {
	t.Helper()
	specs := []ResourceSpec{
		{Name: "fast", Hardware: "SGIOrigin2000", Nodes: 8, Parent: ""},
		{Name: "mid", Hardware: "SunUltra5", Nodes: 8, Parent: "fast"},
		{Name: "slow", Hardware: "SunSPARCstation2", Nodes: 8, Parent: "fast"},
	}
	if opts.GA == (ga.Config{}) {
		cfg := ga.DefaultConfig()
		cfg.MaxGenerations = 12
		cfg.ConvergenceWindow = 4
		opts.GA = cfg
	}
	g, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty spec accepted")
	}
	bad := []ResourceSpec{{Name: "x", Hardware: "VAX", Nodes: 4}}
	if _, err := New(bad, Options{}); err == nil {
		t.Error("unknown hardware accepted")
	}
	orphan := []ResourceSpec{
		{Name: "a", Hardware: "SGIOrigin2000", Nodes: 4},
		{Name: "b", Hardware: "SGIOrigin2000", Nodes: 4, Parent: "nope"},
	}
	if _, err := New(orphan, Options{}); err == nil {
		t.Error("unknown parent accepted")
	}
	twoHeads := []ResourceSpec{
		{Name: "a", Hardware: "SGIOrigin2000", Nodes: 4},
		{Name: "b", Hardware: "SGIOrigin2000", Nodes: 4},
	}
	if _, err := New(twoHeads, Options{}); err == nil {
		t.Error("two-headed grid accepted")
	}
	if _, err := New([]ResourceSpec{{Name: "a", Hardware: "SGIOrigin2000", Nodes: 4}},
		Options{Policy: PolicyKind("quantum")}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestParsePolicy pins the policy list: the paper's GA against its FIFO
// baseline (and FIFO's fast twin). A removed or misspelt name is
// rejected with an error that says what is accepted.
func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		name string
		want PolicyKind
	}{
		{"", PolicyGA}, {"ga", PolicyGA}, {"fifo", PolicyFIFO}, {"fifo-fast", PolicyFIFOFast},
	} {
		if got, err := ParsePolicy(c.name); err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
	for _, name := range []string{"sa", "tabu", "GA", "round-robin"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
			continue
		}
		for _, want := range []string{name, "fifo", "fifo-fast", "ga"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParsePolicy(%q) error %q does not name %q", name, err, want)
			}
		}
	}
}

func TestGridDefaults(t *testing.T) {
	g := smallGrid(t, Options{})
	if g.Library().Len() != 7 {
		t.Fatalf("default library has %d models", g.Library().Len())
	}
	if !g.Engine().CacheEnabled() {
		t.Fatal("evaluation cache disabled by default")
	}
	if _, ok := g.locals["fast"]; !ok {
		t.Fatal("local lookup failed")
	}
	nodes := g.NodesByResource()
	if nodes["fast"] != 8 || len(nodes) != 3 {
		t.Fatalf("NodesByResource = %v", nodes)
	}
	if g.Hierarchy().Head().Name() != "fast" {
		t.Fatal("wrong hierarchy head")
	}
}

func TestGridRunDirectSubmission(t *testing.T) {
	g := smallGrid(t, Options{Policy: PolicyFIFO})
	for i := 0; i < 10; i++ {
		if err := g.SubmitAt(float64(i), "slow", "fft", 1e6); err != nil {
			t.Fatal(err)
		}
	}
	if g.requests != 10 {
		t.Fatalf("requests = %d", g.requests)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	recs := g.Records()
	if len(recs) != 10 {
		t.Fatalf("%d records, want 10", len(recs))
	}
	for _, r := range recs {
		if r.Resource != "slow" {
			t.Fatalf("direct submission landed on %s", r.Resource)
		}
	}
	if len(g.Dispatches()) != 10 {
		t.Fatalf("%d dispatches", len(g.Dispatches()))
	}
}

func TestGridRunWithAgentsRedistributes(t *testing.T) {
	g := smallGrid(t, Options{Policy: PolicyGA, UseAgents: true, Seed: 5})
	// Tight deadlines submitted to the slow agent must migrate to faster
	// resources through discovery.
	for i := 0; i < 20; i++ {
		if err := g.SubmitAt(float64(i), "slow", "sweep3d", 12); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	recs := g.Records()
	if len(recs) != 20 {
		t.Fatalf("%d records", len(recs))
	}
	bySite := map[string]int{}
	for _, r := range recs {
		bySite[r.Resource]++
	}
	if bySite["slow"] == 20 {
		t.Fatalf("agents did not redistribute: %v", bySite)
	}
	if bySite["fast"] == 0 {
		t.Fatalf("fast resource unused: %v", bySite)
	}
}

func TestGridMetrics(t *testing.T) {
	g := smallGrid(t, Options{Policy: PolicyFIFO})
	if err := g.SubmitAt(0, "fast", "closure", 100); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Metrics(60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Tasks != 1 {
		t.Fatalf("metrics over %d tasks", rep.Total.Tasks)
	}
	if rep.Total.Epsilon <= 0 {
		t.Fatalf("an uncontended task missed its deadline: ε = %v", rep.Total.Epsilon)
	}
	if len(rep.PerResource) != 3 {
		t.Fatalf("%d resources in report", len(rep.PerResource))
	}
}

func TestGridSubmitValidation(t *testing.T) {
	g := smallGrid(t, Options{})
	if err := g.SubmitAt(0, "fast", "no-such-app", 10); err == nil {
		t.Error("unknown app accepted")
	}
	if err := g.SubmitAt(0, "no-such-agent", "fft", 10); err == nil {
		t.Error("unknown agent accepted")
	}
	if err := g.SubmitAt(0, "fast", "fft", -1); err == nil {
		t.Error("negative deadline accepted")
	}
}

// TestRejectedSubmitChangesNothing checks that a rejected SubmitAt or
// SubmitReservationAt counts no request and mints no request ID: the
// next accepted request is still request 1.
func TestRejectedSubmitChangesNothing(t *testing.T) {
	rec := trace.NewRecorder(64)
	g := smallGrid(t, Options{UseAgents: true, Seed: 1, Trace: rec})
	rejected := map[string]error{
		"submit, negative deadline":        g.SubmitAt(900, "fast", "fft", -1),
		"submit, unknown app":              g.SubmitAt(900, "fast", "no-such-app", 10),
		"reservation, zero duration":       g.SubmitReservationAt(900, "fast", "fft", 100, 0, 2, 3),
		"reservation, unknown agent":       g.SubmitReservationAt(900, "ghost", "fft", 100, 50, 2, 3),
		"reservation, negative start":      g.SubmitReservationAt(900, "fast", "fft", -1, 50, 2, 3),
		"reservation, zero nodes per part": g.SubmitReservationAt(900, "fast", "fft", 100, 50, 0, 3),
	}
	for name, err := range rejected {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if g.requests != 0 || g.lastRequestAt != 0 {
		t.Fatalf("rejected submits left Requests() = %d, last request at %g", g.requests, g.lastRequestAt)
	}
	if err := g.SubmitAt(0, "fast", "fft", 1000); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.requests != 1 {
		t.Fatalf("Requests() = %d after one accepted submit, want 1", g.requests)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindArrive && ev.ReqID != 1 {
			t.Fatalf("the accepted request arrived as request %d, want 1: a rejected submit minted an ID", ev.ReqID)
		}
	}
}

func TestGridRunOnlyOnce(t *testing.T) {
	g := smallGrid(t, Options{})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err == nil {
		t.Error("second Run accepted")
	}
	if err := g.SubmitAt(0, "fast", "fft", 10); err == nil {
		t.Error("submission after Run accepted")
	}
}

func TestGridWorkloadIntegration(t *testing.T) {
	g := smallGrid(t, Options{Policy: PolicyGA, UseAgents: true, Seed: 9})
	spec := workload.Spec{
		Seed: 9, Count: 30, Interval: 1,
		AgentNames: []string{"fast", "mid", "slow"},
		Library:    g.Library(),
	}
	reqs, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitWorkload(reqs); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Records()); got != 30 {
		t.Fatalf("%d records, want 30 (no tasks lost)", got)
	}
}

func TestGridDeterminism(t *testing.T) {
	run := func() string {
		g := smallGrid(t, Options{Policy: PolicyGA, UseAgents: true, Seed: 21})
		spec := workload.Spec{
			Seed: 21, Count: 25, Interval: 1,
			AgentNames: []string{"fast", "mid", "slow"},
			Library:    g.Library(),
		}
		reqs, _ := workload.Generate(spec)
		if err := g.SubmitWorkload(reqs); err != nil {
			t.Fatal(err)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range g.Records() {
			b.WriteString(r.Resource)
			b.WriteString("|")
		}
		rep, _ := g.Metrics(25)
		fmt.Fprintf(&b, "===%v", rep.Total.Epsilon)
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different runs:\n%s\n%s", a, b)
	}
}

func TestGridTraceRecordsLifecycle(t *testing.T) {
	rec := trace.NewRecorder(1000)
	g := smallGrid(t, Options{Policy: PolicyGA, UseAgents: true, Seed: 3, Trace: rec})
	for i := 0; i < 5; i++ {
		if err := g.SubmitAt(float64(i), "slow", "fft", 500); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	counts := countKinds(rec)
	if counts[trace.KindArrive] != 5 || counts[trace.KindDispatch] != 5 {
		t.Fatalf("arrival/dispatch counts: %v", counts)
	}
	if counts[trace.KindStart] != 5 || counts[trace.KindComplete] != 5 {
		t.Fatalf("start/complete counts: %v", counts)
	}
	// Every dispatched request has a coherent history ending in completion.
	for _, d := range g.Dispatches() {
		if d.ReqID == 0 {
			t.Fatalf("dispatch %+v carries no request ID", d)
		}
		var hist []trace.Event
		for _, ev := range rec.Events() {
			if ev.ReqID == d.ReqID && ev.Kind.TaskBearing() {
				hist = append(hist, ev)
			}
		}
		if len(hist) == 0 || hist[0].Kind != trace.KindArrive || hist[len(hist)-1].Kind != trace.KindComplete {
			t.Fatalf("request %d history: %+v", d.ReqID, hist)
		}
	}
}

// countKinds tallies the recorder's retained events by kind.
func countKinds(rec *trace.Recorder) map[trace.Kind]int {
	out := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		out[ev.Kind]++
	}
	return out
}
