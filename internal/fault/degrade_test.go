package fault_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

func TestDegradeWindowsAndSlowdownAt(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{At: 10, Kind: fault.Degrade, Agent: "S1", Factor: 2},
		{At: 20, Kind: fault.Restore, Agent: "S1"},
		// A second degradation re-opened with a new factor and never
		// restored: the window runs to infinity.
		{At: 30, Kind: fault.Degrade, Agent: "S1", Factor: 3},
		// Another agent's events must not leak into S1's windows.
		{At: 5, Kind: fault.Degrade, Agent: "S2", Factor: 7},
	}}

	ws := plan.DegradeWindows("S1")
	if len(ws) != 2 {
		t.Fatalf("windows = %v, want 2", ws)
	}
	if ws[0].From != 10 || ws[0].To != 20 || ws[0].Factor != 2 {
		t.Fatalf("first window = %+v", ws[0])
	}
	if ws[1].From != 30 || !math.IsInf(ws[1].To, 1) || ws[1].Factor != 3 {
		t.Fatalf("second window = %+v", ws[1])
	}

	for _, tc := range []struct {
		at   float64
		want float64
	}{
		{0, 1}, {9.99, 1},
		{10, 2}, {19.99, 2},
		{20, 1}, {29.99, 1}, // Restore boundary: To is exclusive
		{30, 3}, {1e9, 3}, // open-ended
	} {
		if got := plan.Slowdown("S1")(tc.at); got != tc.want {
			t.Errorf("Slowdown(S1)(%g) = %g, want %g", tc.at, got, tc.want)
		}
	}
	if got := plan.Slowdown("S3")(15); got != 1 {
		t.Errorf("Slowdown(S3)(15) = %g, want 1 (never degraded)", got)
	}
	if got := plan.Degraded(); !reflect.DeepEqual(got, []string{"S1", "S2"}) {
		t.Errorf("Degraded() = %v", got)
	}

	// A new degrade factor supersedes the open window at its start time.
	redo := fault.Plan{Events: []fault.Event{
		{At: 10, Kind: fault.Degrade, Agent: "S1", Factor: 2},
		{At: 15, Kind: fault.Degrade, Agent: "S1", Factor: 4},
	}}
	if got := redo.Slowdown("S1")(12); got != 2 {
		t.Errorf("Slowdown before supersede = %g, want 2", got)
	}
	if got := redo.Slowdown("S1")(18); got != 4 {
		t.Errorf("Slowdown after supersede = %g, want 4", got)
	}
}

func TestPlanValidateDegrade(t *testing.T) {
	known := map[string]bool{"S1": true}
	bad := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Degrade, Agent: "S1", Factor: 0},
	}}
	if err := bad.Validate(known); err == nil || !strings.Contains(err.Error(), "non-positive factor") {
		t.Fatalf("zero factor: err = %v", err)
	}
	unknown := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Degrade, Agent: "S9", Factor: 2},
	}}
	if err := unknown.Validate(known); err == nil || !strings.Contains(err.Error(), "unknown agent") {
		t.Fatalf("unknown agent: err = %v", err)
	}
	ok := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Degrade, Agent: "S1", Factor: 2},
		{At: 5, Kind: fault.Restore, Agent: "S1"},
	}}
	if err := ok.Validate(known); err != nil {
		t.Fatalf("valid degrade plan rejected: %v", err)
	}
}

func TestRegistryDegradeIdempotent(t *testing.T) {
	r := fault.NewRegistry(1)
	if got := r.DegradeFactor("a"); got != 1 {
		t.Fatalf("undegraded factor = %g, want 1", got)
	}
	if !r.Apply(fault.Event{Kind: fault.Degrade, Agent: "a", Factor: 3}) {
		t.Fatal("first degrade reported no change")
	}
	if r.Apply(fault.Event{Kind: fault.Degrade, Agent: "a", Factor: 3}) {
		t.Fatal("same-factor degrade reported a change")
	}
	if !r.Apply(fault.Event{Kind: fault.Degrade, Agent: "a", Factor: 5}) {
		t.Fatal("new-factor degrade reported no change")
	}
	if got := r.DegradeFactor("a"); got != 5 {
		t.Fatalf("DegradeFactor = %g, want 5", got)
	}
	if got := r.Degraded(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Degraded() = %v", got)
	}
	// Degradation slows a resource; it never silences one.
	if err := r.ExchangeErr("b", "a", 0); err != nil {
		t.Fatalf("exchange with degraded agent blocked: %v", err)
	}
	if !r.Apply(fault.Event{Kind: fault.Restore, Agent: "a"}) {
		t.Fatal("restore reported no change")
	}
	if r.Apply(fault.Event{Kind: fault.Restore, Agent: "a"}) {
		t.Fatal("second restore reported a change")
	}
	if got := r.DegradeFactor("a"); got != 1 {
		t.Fatalf("factor after restore = %g, want 1", got)
	}
}

// TestDegradedRunStretchesExecutions drives a one-resource grid through
// a degradation window and checks the injector bookkeeping plus the
// observable effect: tasks starting inside the window run exactly
// Factor times longer than the identical undegraded run.
func TestDegradedRunStretchesExecutions(t *testing.T) {
	run := func(plan *fault.Plan) ([]scheduler.Record, fault.Stats, *trace.Recorder) {
		rec := trace.NewRecorder(256)
		g, err := core.New([]core.ResourceSpec{
			{Name: "fast", Hardware: "SGIOrigin2000", Nodes: 16},
			{Name: "slow", Hardware: "SunSPARCstation2", Nodes: 2, Parent: "fast"},
		}, core.Options{
			UseAgents: true,
			Seed:      2003,
			Trace:     rec,
			FaultPlan: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := g.SubmitAt(float64(i)*0.25, "slow", "sweep3d", 1000); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Records(), g.FaultStats(), rec
	}

	base, _, _ := run(nil)
	plan := &fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Degrade, Agent: "slow", Factor: 2},
		{At: 1e6, Kind: fault.Restore, Agent: "slow"},
	}}
	slow, st, rec := run(plan)

	if st.Degrades != 1 || st.Restores != 1 {
		t.Fatalf("Degrades=%d Restores=%d, want 1 and 1", st.Degrades, st.Restores)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindDegrade] != 1 {
		t.Fatalf("degrade trace events = %d, want 1", byKind[trace.KindDegrade])
	}
	if len(base) != len(slow) {
		t.Fatalf("completed %d vs %d tasks", len(base), len(slow))
	}
	// Completion order can differ between the runs (stretched executions
	// reshuffle the queue), so records pair up by grid-wide ReqID.
	pred := make(map[uint64]float64, len(base))
	for _, r := range base {
		if r.Resource == "slow" {
			pred[r.ReqID] = r.End - r.Start
		}
	}
	stretched := 0
	for _, r := range slow {
		if r.Resource != "slow" {
			continue
		}
		bd, ok := pred[r.ReqID]
		if !ok {
			continue // placed differently under degradation
		}
		if sd := r.End - r.Start; math.Abs(sd-2*bd) > 1e-9 {
			t.Fatalf("req %d: degraded duration %g, want 2x baseline %g", r.ReqID, sd, bd)
		}
		stretched++
	}
	if stretched == 0 {
		t.Fatal("no task executed on the degraded resource")
	}
}
