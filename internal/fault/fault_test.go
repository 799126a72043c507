package fault_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

func TestPlanValidate(t *testing.T) {
	known := map[string]bool{"S1": true, "S2": true}
	cases := []struct {
		name string
		plan fault.Plan
		want string // substring of the error, "" for valid
	}{
		{"valid", fault.Plan{Events: []fault.Event{
			{At: 1, Kind: fault.Crash, Agent: "S1"},
			{At: 2, Kind: fault.Recover, Agent: "S1"},
			{At: 3, Kind: fault.Cut, A: "S1", B: "S2"},
			{At: 4, Kind: fault.Lossy, A: "S1", B: "S2", Rate: 0.5},
		}}, ""},
		{"negative time", fault.Plan{Events: []fault.Event{
			{At: -1, Kind: fault.Crash, Agent: "S1"},
		}}, "negative time"},
		{"unknown agent", fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Crash, Agent: "S9"},
		}}, "unknown agent"},
		{"unknown link", fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Cut, A: "S1", B: "S9"},
		}}, "unknown link"},
		{"self link", fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Cut, A: "S1", B: "S1"},
		}}, "itself"},
		{"bad rate", fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Lossy, A: "S1", B: "S2", Rate: 1.5},
		}}, "loss rate"},
		{"bad kind", fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Kind("meteor"), Agent: "S1"},
		}}, "unknown kind"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(known)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestRegistryApplyIdempotentAndGate(t *testing.T) {
	r := fault.NewRegistry(1)
	if err := r.ExchangeErr("a", "b", 0); err != nil {
		t.Fatalf("healthy exchange blocked: %v", err)
	}

	if !r.Apply(fault.Event{Kind: fault.Crash, Agent: "b"}) {
		t.Fatal("first crash reported no change")
	}
	if r.Apply(fault.Event{Kind: fault.Crash, Agent: "b"}) {
		t.Fatal("second crash of a crashed agent reported a change")
	}
	err := r.ExchangeErr("a", "b", 0)
	var de *fault.DownError
	if !errors.As(err, &de) || de.Reason != "agent down" {
		t.Fatalf("exchange to crashed agent: %v", err)
	}
	if err := r.ExchangeErr("b", "a", 0); err == nil {
		t.Fatal("exchange from a crashed agent succeeded")
	}
	if got := r.Down(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Down() = %v", got)
	}
	if !r.Apply(fault.Event{Kind: fault.Recover, Agent: "b"}) {
		t.Fatal("recover reported no change")
	}
	if err := r.ExchangeErr("a", "b", 0); err != nil {
		t.Fatalf("exchange after recovery blocked: %v", err)
	}

	// Links are unordered pairs: cutting a-b blocks b-a too.
	r.Apply(fault.Event{Kind: fault.Cut, A: "b", B: "a"})
	if err := r.ExchangeErr("a", "b", 0); err == nil {
		t.Fatal("cut link passed traffic")
	}
	if r.Apply(fault.Event{Kind: fault.Heal, A: "a", B: "b"}); r.ExchangeErr("b", "a", 0) != nil {
		t.Fatal("healed link still blocked")
	}
}

func TestRegistryLossyDeterministic(t *testing.T) {
	run := func() (failures int) {
		r := fault.NewRegistry(42)
		r.Apply(fault.Event{Kind: fault.Lossy, A: "a", B: "b", Rate: 0.5})
		for i := 0; i < 100; i++ {
			if r.ExchangeErr("a", "b", float64(i)) != nil {
				failures++
			}
		}
		if failures != r.Drops() {
			t.Fatalf("failures %d != Drops() %d", failures, r.Drops())
		}
		return failures
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different drop counts: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("rate 0.5 dropped %d of 100 exchanges", a)
	}
	// Rate 0 restores the link.
	r := fault.NewRegistry(42)
	r.Apply(fault.Event{Kind: fault.Lossy, A: "a", B: "b", Rate: 0.9})
	r.Apply(fault.Event{Kind: fault.Lossy, A: "a", B: "b", Rate: 0})
	for i := 0; i < 50; i++ {
		if err := r.ExchangeErr("a", "b", 0); err != nil {
			t.Fatalf("restored link dropped an exchange: %v", err)
		}
	}
}

func TestPlanSortedStableAndString(t *testing.T) {
	p := fault.Plan{Events: []fault.Event{
		{At: 5, Kind: fault.Recover, Agent: "S2"},
		{At: 1, Kind: fault.Crash, Agent: "S1"},
		{At: 5, Kind: fault.Crash, Agent: "S3"},
	}}
	s := p.Sorted()
	if s[0].Agent != "S1" || s[1].Agent != "S2" || s[2].Agent != "S3" {
		t.Fatalf("Sorted() = %v", s)
	}
	if got := p.Crashed(); !reflect.DeepEqual(got, []string{"S1", "S3"}) {
		t.Fatalf("Crashed() = %v", got)
	}
	if !strings.Contains(p.String(), "crash") {
		t.Fatalf("String() = %q", p.String())
	}
}

// crashGrid builds a two-resource grid — a fast head and a slow,
// small lower resource — runs a workload that queues work on the slow
// resource, crashes it mid-queue and recovers it later.
func crashGrid(t *testing.T) (*core.Grid, *trace.Recorder, int) {
	t.Helper()
	rec := trace.NewRecorder(0)
	plan := &fault.Plan{Events: []fault.Event{
		{At: 2, Kind: fault.Crash, Agent: "slow"},
		{At: 15, Kind: fault.Recover, Agent: "slow"},
	}}
	g, err := core.New([]core.ResourceSpec{
		{Name: "fast", Hardware: "SGIOrigin2000", Nodes: 16},
		{Name: "slow", Hardware: "SunSPARCstation2", Nodes: 2, Parent: "fast"},
	}, core.Options{
		UseAgents: true,
		Seed:      2003,
		Trace:     rec,
		FaultPlan: plan,
		AdvertTTL: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Six requests land on the slow resource before the crash: loose
	// deadlines keep them local (§3.2 local-first), and two nodes mean
	// most are still unstarted at t=2.
	n := 0
	for i := 0; i < 6; i++ {
		if err := g.SubmitAt(float64(i)*0.25, "slow", "sweep3d", 1000); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// Two arrive while the agent is down and must be rerouted.
	for _, at := range []float64{5, 8} {
		if err := g.SubmitAt(at, "slow", "sweep3d", 1000); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// One arrives after recovery and is served normally.
	if err := g.SubmitAt(25, "slow", "sweep3d", 1000); err != nil {
		t.Fatal(err)
	}
	n++
	return g, rec, n
}

func TestInjectorCrashRecoverZeroLost(t *testing.T) {
	g, rec, n := crashGrid(t)
	if err := g.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := len(g.Records()); got != n {
		t.Fatalf("completed %d of %d tasks", got, n)
	}
	st := g.FaultStats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("Crashes=%d Recoveries=%d, want 1 and 1", st.Crashes, st.Recoveries)
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d tasks", st.Lost)
	}
	if st.Redispatched == 0 {
		t.Fatal("no tasks re-dispatched off the crashed agent")
	}
	if st.Rerouted != 2 {
		t.Fatalf("Rerouted = %d, want 2 (the two arrivals during downtime)", st.Rerouted)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindPeerDown] != 1 || byKind[trace.KindPeerUp] != 1 {
		t.Fatalf("peerdown/peerup events = %d/%d, want 1/1",
			byKind[trace.KindPeerDown], byKind[trace.KindPeerUp])
	}
	if byKind[trace.KindRedispatch] != st.Redispatched {
		t.Fatalf("redispatch events = %d, stats say %d",
			byKind[trace.KindRedispatch], st.Redispatched)
	}
	// Re-dispatched tasks must have landed on the surviving resource.
	onFast := 0
	for _, r := range g.Records() {
		if r.Resource == "fast" {
			onFast++
		}
	}
	if onFast < st.Redispatched {
		t.Fatalf("only %d tasks on the survivor, %d were re-dispatched", onFast, st.Redispatched)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	type snapshot struct {
		stats fault.Stats
		recs  string
	}
	run := func() snapshot {
		g, _, _ := crashGrid(t)
		if err := g.Run(); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		var b strings.Builder
		for _, r := range g.Records() {
			b.WriteString(r.Resource)
			b.WriteString("|")
		}
		return snapshot{stats: g.FaultStats(), recs: b.String()}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical fault runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultPlanRequiresAgents(t *testing.T) {
	_, err := core.New([]core.ResourceSpec{
		{Name: "only", Hardware: "SGIOrigin2000", Nodes: 16},
	}, core.Options{
		FaultPlan: &fault.Plan{},
	})
	if err == nil || !strings.Contains(err.Error(), "UseAgents") {
		t.Fatalf("err = %v, want UseAgents requirement", err)
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
