package core

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// runFingerprint reduces a finished grid to a string covering every
// execution record and dispatch, the byte-level identity telemetry must
// not disturb.
func runFingerprint(g *Grid) string {
	s := ""
	for _, r := range g.Records() {
		s += fmt.Sprintf("%s/%d %s %.9f %.9f %.9f\n", r.Resource, r.TaskID, r.App.Name, r.Start, r.End, r.Deadline)
	}
	for _, d := range g.Dispatches() {
		s += fmt.Sprintf("%d->%s/%d %d\n", d.ReqID, d.Resource, d.TaskID, d.Hops)
	}
	return s
}

func submitMixed(t *testing.T, g *Grid) {
	t.Helper()
	apps := []string{"sweep3d", "fft", "improc"}
	for i := 0; i < 30; i++ {
		if err := g.SubmitAt(float64(i)*2, "slow", apps[i%len(apps)], 25); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryByteIdentical runs the same agent+GA workload with and
// without a registry attached and requires identical records and
// dispatches: instruments observe, they never steer.
func TestTelemetryByteIdentical(t *testing.T) {
	base := Options{Policy: PolicyGA, UseAgents: true, PushAdverts: true, Seed: 42}

	plain := smallGrid(t, base)
	submitMixed(t, plain)
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}

	instr := base
	instr.Telemetry = telemetry.NewRegistry()
	instr.SamplePeriod = 5
	wired := smallGrid(t, instr)
	submitMixed(t, wired)
	if err := wired.Run(); err != nil {
		t.Fatal(err)
	}

	if got, want := runFingerprint(wired), runFingerprint(plain); got != want {
		t.Fatalf("instrumented run diverged from plain run:\n--- plain ---\n%s--- instrumented ---\n%s", want, got)
	}
}

// TestTelemetryCountsAndSeries checks the registry totals against ground
// truth and that the virtual-time series carries per-resource queue
// depth and the grid-wide ε probe.
func TestTelemetryCountsAndSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := smallGrid(t, Options{Policy: PolicyGA, UseAgents: true, Seed: 7, Telemetry: reg, SamplePeriod: 5})
	submitMixed(t, g)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["grid_requests_total"]; got != 30 {
		t.Fatalf("grid_requests_total = %d, want 30", got)
	}
	if got := snap.Counters["grid_dispatches_total"]; got != 30 {
		t.Fatalf("grid_dispatches_total = %d, want 30", got)
	}
	if got := snap.Counters["grid_request_errors_total"]; got != 0 {
		t.Fatalf("grid_request_errors_total = %d, want 0", got)
	}
	if got := snap.Gauges["grid_resources"]; got != 3 {
		t.Fatalf("grid_resources = %g, want 3", got)
	}
	// Every request arrived at "slow": its agent counted all 30.
	if got := snap.Counters[`agent_requests_received_total{resource="slow"}`]; got != 30 {
		t.Fatalf(`agent received{slow} = %d, want 30`, got)
	}
	// The GA planned at least once per resource that accepted work.
	var plans uint64
	for _, res := range []string{"fast", "mid", "slow"} {
		plans += snap.Counters[fmt.Sprintf(`ga_plans_total{resource=%q}`, res)]
	}
	if plans == 0 {
		t.Fatal("no GA plans counted")
	}
	// The snapshot-time engine collector ran.
	if snap.Gauges["pace_evaluations"] == 0 {
		t.Fatal("pace_evaluations collector not wired")
	}

	series := g.sampler.Series()
	if len(series.Points) < 3 {
		t.Fatalf("series has %d points", len(series.Points))
	}
	lastPt := series.Points[len(series.Points)-1]
	if _, ok := lastPt.V[`sched_queue_depth{resource="slow"}`]; !ok {
		t.Fatalf("series point lacks per-resource queue depth: %v", lastPt.V)
	}
	if lastPt.V["grid_completed"] != 30 {
		t.Fatalf("final grid_completed = %g, want 30", lastPt.V["grid_completed"])
	}
	// ε is mean(deadline − completion): negative here because the tight
	// 25 s deadlines overload the grid — the probe just has to be live.
	if lastPt.V["grid_eps_s"] == 0 {
		t.Fatalf("final grid_eps_s = 0, want non-zero (probe dead?)")
	}
	// ε must be monotone non-decreasing in completions: just require the
	// probe present on interior points too.
	if _, ok := series.Points[1].V["grid_eps_s"]; !ok {
		t.Fatal("interior point lacks grid_eps_s probe")
	}

	if exp := g.TelemetryExport(); exp == nil || exp.Series == nil {
		t.Fatal("TelemetryExport missing series")
	}
	if smallGrid(t, Options{Policy: PolicyFIFO}).TelemetryExport() != nil {
		t.Fatal("uninstrumented grid exported telemetry")
	}
}
