package agent

import (
	"strings"
	"testing"

	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

func newLocal(t testing.TB, name string, hw pace.Hardware, nodes int, engine *pace.Engine) *scheduler.Local {
	t.Helper()
	l, err := scheduler.NewLocal(scheduler.Config{
		Name: name, HW: hw, NumNodes: nodes,
		Policy: scheduler.NewFIFOPolicy(), Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newAgent(t testing.TB, name string, hw pace.Hardware, nodes int, engine *pace.Engine) *Agent {
	t.Helper()
	a, err := New(newLocal(t, name, hw, nodes, engine), engine)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func appOf(t testing.TB, name string) *pace.AppModel {
	t.Helper()
	m, ok := pace.CaseStudyLibrary().Lookup(name)
	if !ok {
		t.Fatalf("no model %q", name)
	}
	return m
}

// pair builds a two-agent hierarchy: head (fast) with one child (slow).
func pair(t testing.TB, engine *pace.Engine) (head, child *Agent) {
	t.Helper()
	head = newAgent(t, "fast", pace.SGIOrigin2000, 16, engine)
	child = newAgent(t, "slow", pace.SunSPARCstation2, 16, engine)
	if err := Link(head, child); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy([]*Agent{head, child}); err != nil {
		t.Fatal(err)
	}
	head.Pull(0)
	child.Pull(0)
	return head, child
}

func TestNewValidation(t *testing.T) {
	e := pace.NewEngine()
	if _, err := New(nil, e); err == nil {
		t.Error("nil local accepted")
	}
	if _, err := New(newLocal(t, "x", pace.SGIOrigin2000, 2, e), nil); err == nil {
		t.Error("nil engine accepted")
	}
	a := newAgent(t, "x", pace.SGIOrigin2000, 2, e)
	if a.PullPeriod != DefaultPullPeriod {
		t.Fatalf("pull period %v, want %v (§4.1 ten seconds)", a.PullPeriod, DefaultPullPeriod)
	}
}

func TestLocalPriority(t *testing.T) {
	// The local resource can meet the deadline, so the request must stay
	// local even though the neighbour is faster.
	e := pace.NewEngine()
	_, child := pair(t, e)
	req := Request{App: appOf(t, "fft"), Env: "test", Deadline: 1000}
	d, err := child.HandleRequest(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "slow" {
		t.Fatalf("dispatched to %s; local scheduler must get priority", d.Resource)
	}
	if d.Fallback {
		t.Fatal("local accept flagged as fallback")
	}
	if child.Stats().LocalAccept != 1 {
		t.Fatalf("stats: %+v", child.Stats())
	}
}

func TestForwardToNeighbourWhenLocalCannotMeetDeadline(t *testing.T) {
	// sweep3d on SPARCstation2 takes at best 4*4.5 = 18s; a 10s deadline
	// forces discovery to the fast neighbour (min 4s).
	e := pace.NewEngine()
	head, child := pair(t, e)
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}
	d, err := child.HandleRequest(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "fast" {
		t.Fatalf("dispatched to %s, want fast", d.Resource)
	}
	if child.Stats().Forwarded != 1 {
		t.Fatalf("child stats: %+v", child.Stats())
	}
	if head.Stats().LocalAccept != 1 {
		t.Fatalf("head stats: %+v", head.Stats())
	}
}

func TestEnvironmentMatchmaking(t *testing.T) {
	e := pace.NewEngine()
	lFast, err := scheduler.NewLocal(scheduler.Config{
		Name: "mpiOnly", HW: pace.SGIOrigin2000, NumNodes: 16,
		Policy: scheduler.NewFIFOPolicy(), Engine: e, Environments: []string{"mpi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	head, _ := New(lFast, e)
	child := newAgent(t, "testEnv", pace.SunSPARCstation2, 16, e)
	if err := Link(head, child); err != nil {
		t.Fatal(err)
	}
	head.Pull(0)
	child.Pull(0)
	// Tight deadline the slow child cannot meet, but the fast parent only
	// speaks MPI: the request must stay on the child via fallback rather
	// than land on an incompatible environment.
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}
	d, err := child.HandleRequest(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "testEnv" {
		t.Fatalf("request landed on %s which does not support the test environment", d.Resource)
	}
	if !d.Fallback {
		t.Fatal("expected a fallback dispatch")
	}
}

func TestEscalationThroughHierarchy(t *testing.T) {
	// Three-level chain: grandchild (slow) -> child (slow) -> head (fast).
	// The grandchild only knows the child; a tight deadline escalates to
	// the head where the fast resource is found.
	e := pace.NewEngine()
	head := newAgent(t, "head", pace.SGIOrigin2000, 16, e)
	mid := newAgent(t, "mid", pace.SunSPARCstation2, 16, e)
	leaf := newAgent(t, "leaf", pace.SunSPARCstation2, 16, e)
	if err := Link(head, mid); err != nil {
		t.Fatal(err)
	}
	if err := Link(mid, leaf); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Agent{head, mid, leaf} {
		a.Pull(0)
	}
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}
	d, err := leaf.HandleRequest(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "head" {
		t.Fatalf("dispatched to %s, want head", d.Resource)
	}
	if leaf.Stats().Escalated+mid.Stats().Escalated+leaf.Stats().Forwarded+mid.Stats().Forwarded == 0 {
		t.Fatal("request reached the head without any forwarding or escalation")
	}
}

func TestFallbackAtHead(t *testing.T) {
	// Deadline impossible everywhere: the head falls back to the best-η
	// resource instead of dropping the task.
	e := pace.NewEngine()
	head, child := pair(t, e)
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 0.5}
	d, err := child.HandleRequest(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback {
		t.Fatal("impossible deadline did not trigger fallback")
	}
	if d.Resource != "fast" { // lowest η overall
		t.Fatalf("fallback chose %s, want fast", d.Resource)
	}
	if head.Stats().Fallbacks != 1 {
		t.Fatalf("head stats: %+v", head.Stats())
	}
}

func TestStaleAdvertisementsAreClampedToNow(t *testing.T) {
	e := pace.NewEngine()
	_, child := pair(t, e)
	// Advertisements pulled at t=0 claim freetime 0; by t=500 the
	// neighbour estimate must be at least now + best exec time.
	eta, ok := child.estimateRemote(child.slotOf("fast"), appOf(t, "sweep3d"), 500)
	if !ok {
		t.Fatal("no estimate for fast")
	}
	if eta < 504 {
		t.Fatalf("stale advertisement not clamped: η = %v", eta)
	}
}

func TestNoRoutingLoopWithStaleData(t *testing.T) {
	// Two slow siblings under a slow head, advertisements all claiming
	// freetime 0 forever. An impossible deadline must terminate (visited
	// set) rather than ping-pong between siblings.
	e := pace.NewEngine()
	head := newAgent(t, "h", pace.SunSPARCstation2, 16, e)
	a := newAgent(t, "a", pace.SunSPARCstation2, 16, e)
	b := newAgent(t, "b", pace.SunSPARCstation2, 16, e)
	if err := Link(head, a); err != nil {
		t.Fatal(err)
	}
	if err := Link(head, b); err != nil {
		t.Fatal(err)
	}
	for _, ag := range []*Agent{head, a, b} {
		ag.Pull(0)
	}
	req := Request{App: appOf(t, "improc"), Env: "test", Deadline: 1}
	done := make(chan struct{})
	var d Dispatch
	var err error
	go func() {
		d, err = a.HandleRequest(req, 0)
		close(done)
	}()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback {
		t.Fatal("expected fallback for impossible deadline")
	}
}

func TestPullPopulatesCache(t *testing.T) {
	e := pace.NewEngine()
	head, child := pair(t, e)
	names := head.CachedServiceNames()
	if len(names) != 1 || names[0] != "slow" {
		t.Fatalf("head cache = %v", names)
	}
	names = child.CachedServiceNames()
	if len(names) != 1 || names[0] != "fast" {
		t.Fatalf("child cache = %v", names)
	}
	if head.Stats().Pulls != 1 || child.Stats().Pulls != 1 {
		t.Fatal("pull counters wrong")
	}
}

func TestAdvertisedFreetimeDrivesPlacement(t *testing.T) {
	// Load the fast resource heavily, re-pull, and check a loose-deadline
	// task submitted to the slow agent stays local because the fast
	// resource's advertised freetime now makes it unattractive.
	e := pace.NewEngine()
	head, child := pair(t, e)
	for i := 0; i < 40; i++ {
		if _, err := head.Local().Submit(appOf(t, "improc"), 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	child.Pull(1)
	req := Request{App: appOf(t, "fft"), Env: "test", Deadline: 1e9}
	d, err := child.HandleRequest(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "slow" {
		t.Fatalf("request chased an overloaded resource: %s", d.Resource)
	}
}

func TestHierarchyValidation(t *testing.T) {
	e := pace.NewEngine()
	a := newAgent(t, "a", pace.SGIOrigin2000, 2, e)
	b := newAgent(t, "b", pace.SGIOrigin2000, 2, e)
	c := newAgent(t, "c", pace.SGIOrigin2000, 2, e)

	if err := Link(a, a); err == nil {
		t.Error("self-link accepted")
	}
	if err := Link(nil, a); err == nil {
		t.Error("nil parent accepted")
	}
	if err := Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := Link(c, b); err == nil {
		t.Error("double parent accepted")
	}
	if err := Link(b, a); err == nil {
		t.Error("cycle accepted")
	}

	// Two heads: a and c.
	if _, err := NewHierarchy([]*Agent{a, b, c}); err == nil || !strings.Contains(err.Error(), "exactly one head") {
		t.Errorf("two-headed hierarchy accepted: %v", err)
	}
	if err := Link(a, c); err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy([]*Agent{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if h.Head() != a {
		t.Fatal("wrong head")
	}
	if _, ok := h.Lookup("b"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := h.Lookup("zz"); ok {
		t.Fatal("phantom lookup succeeded")
	}
	if _, err := NewHierarchy(nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewHierarchy([]*Agent{a, b}); err == nil {
		t.Error("hierarchy with unreachable declared set accepted")
	}
}

func TestHierarchyDuplicateNames(t *testing.T) {
	e := pace.NewEngine()
	a := newAgent(t, "dup", pace.SGIOrigin2000, 2, e)
	b := newAgent(t, "dup", pace.SGIOrigin2000, 2, e)
	if err := Link(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy([]*Agent{a, b}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestHierarchyNaturalOrder(t *testing.T) {
	e := pace.NewEngine()
	agents := []*Agent{
		newAgent(t, "S1", pace.SGIOrigin2000, 2, e),
		newAgent(t, "S2", pace.SGIOrigin2000, 2, e),
		newAgent(t, "S10", pace.SGIOrigin2000, 2, e),
	}
	if err := Link(agents[0], agents[1]); err != nil {
		t.Fatal(err)
	}
	if err := Link(agents[0], agents[2]); err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(agents)
	if err != nil {
		t.Fatal(err)
	}
	names := h.Names()
	if names[0] != "S1" || names[1] != "S2" || names[2] != "S10" {
		t.Fatalf("names = %v, want natural order", names)
	}
}

func TestHierarchyDescribe(t *testing.T) {
	e := pace.NewEngine()
	head, child := pair(t, e)
	h, err := NewHierarchy([]*Agent{head, child})
	if err != nil {
		t.Fatal(err)
	}
	out := h.Describe()
	if !strings.Contains(out, "fast (SGIOrigin2000, 16)") || !strings.Contains(out, "  slow (SunSPARCstation2, 16)") {
		t.Fatalf("Describe:\n%s", out)
	}
}

func TestPullAllUsesSimulatorPeriod(t *testing.T) {
	e := pace.NewEngine()
	head, child := pair(t, e)
	h, _ := NewHierarchy([]*Agent{head, child})
	s := sim.NewSimulator()
	s.Every(DefaultPullPeriod, func(now float64) bool {
		h.PullAll(now)
		return now < 60
	})
	s.RunAll(0)
	// Initial pull at construction plus 6 periodic pulls.
	if got := head.Stats().Pulls; got != 7 {
		t.Fatalf("head pulled %d times, want 7", got)
	}
}

func TestSplitTrailingNumber(t *testing.T) {
	if p, n, ok := splitTrailingNumber("S12"); !ok || p != "S" || n != 12 {
		t.Fatalf("S12 -> %q %d %v", p, n, ok)
	}
	if _, _, ok := splitTrailingNumber("abc"); ok {
		t.Fatal("abc parsed as numbered")
	}
}
