package agent

import (
	"errors"
	"testing"

	"repro/internal/pace"
)

// testGate blocks exchanges with agents listed as down — a miniature of
// the fault registry.
type testGate struct{ down map[string]bool }

func (g *testGate) ExchangeErr(from, to string, now float64) error {
	if g.down[from] || g.down[to] {
		return errors.New("gate: agent down")
	}
	return nil
}

func (g *testGate) AgentDown(name string) bool { return g.down[name] }

// trio builds a head (slow local resource) with two lower neighbours,
// one fast and one middling, all sharing a gate.
func trio(t *testing.T, g Gate) (head, fast, alt *Agent) {
	t.Helper()
	e := pace.NewEngine()
	head = newAgent(t, "head", pace.SunSPARCstation2, 16, e)
	fast = newAgent(t, "fast", pace.SGIOrigin2000, 16, e)
	alt = newAgent(t, "alt", pace.SunUltra10, 16, e)
	if err := Link(head, fast); err != nil {
		t.Fatal(err)
	}
	if err := Link(head, alt); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Agent{head, fast, alt} {
		a.SetGate(g)
		a.Pull(0)
	}
	return head, fast, alt
}

func TestCircuitBreakerDivertsDiscoveryAndProbeRestores(t *testing.T) {
	gate := &testGate{down: map[string]bool{}}
	head, _, _ := trio(t, gate)

	req := func(now float64) Request {
		// Advance the local clock as a live grid would, so the local η
		// is measured from now (sweep3d needs 24 s locally, 4 s on the
		// fast neighbour: only the neighbour meets a 10 s deadline).
		head.Local().AdvanceTo(now)
		return Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: now + 10}
	}

	// Healthy grid: the fast neighbour is the best match.
	d := head.Decide(req(0), 0)
	if d.Kind != DecideForward || d.Peer.PeerName() != "fast" {
		t.Fatalf("healthy decision = %+v, want forward to fast", d)
	}

	// Kill the fast neighbour. Each periodic pull is a failed exchange;
	// after FailureThreshold consecutive failures the circuit trips.
	gate.down["fast"] = true
	for i := 1; i <= DefaultFailureThreshold; i++ {
		if head.PeerTripped("fast") {
			t.Fatalf("tripped after only %d failures", i-1)
		}
		head.Pull(float64(10 * i))
	}
	if !head.PeerTripped("fast") {
		t.Fatalf("breaker not tripped after %d failed pulls", DefaultFailureThreshold)
	}
	if got := head.Stats().FailedPulls; got < DefaultFailureThreshold {
		t.Fatalf("FailedPulls = %d, want >= %d", got, DefaultFailureThreshold)
	}

	// Discovery must now divert around the dead peer, even though its
	// (stale) advertisement still looks perfect.
	d = head.Decide(req(30), 30)
	if d.Kind == DecideForward && d.Peer.PeerName() == "fast" {
		t.Fatalf("discovery still targets the tripped peer: %+v", d)
	}

	// Revive: the next pull doubles as the probe and closes the breaker.
	delete(gate.down, "fast")
	head.Pull(40)
	if head.PeerTripped("fast") {
		t.Fatal("breaker still open after a successful probe")
	}
	d = head.Decide(req(40), 40)
	if d.Kind != DecideForward || d.Peer.PeerName() != "fast" {
		t.Fatalf("recovered decision = %+v, want forward to fast", d)
	}
}

func TestTrippedUpperFallsBackInsteadOfEscalating(t *testing.T) {
	e := pace.NewEngine()
	head := newAgent(t, "head", pace.SGIOrigin2000, 16, e)
	leaf := newAgent(t, "leaf", pace.SunSPARCstation2, 16, e)
	if err := Link(head, leaf); err != nil {
		t.Fatal(err)
	}
	// No Pull: the leaf has no advertisements, so without failures it
	// would escalate (see TestDecideEscalatePath).
	for i := 0; i < DefaultFailureThreshold; i++ {
		leaf.RecordPeerFailure("head")
	}
	d := leaf.Decide(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}, 0)
	if d.Kind == DecideEscalate {
		t.Fatalf("escalated into a tripped upper: %+v", d)
	}
	if d.Kind != DecideFallbackLocal {
		t.Fatalf("decision = %+v, want local fallback", d)
	}
}

func TestHandleRequestSurvivesGateBlockedForward(t *testing.T) {
	gate := &testGate{down: map[string]bool{}}
	head, _, _ := trio(t, gate)

	// The gate kills the chosen neighbour between decision and dispatch:
	// the request must re-enter the fallback path, not be lost.
	gate.down["fast"] = true
	d, err := head.HandleRequest(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}, 0)
	if err != nil {
		t.Fatalf("request lost: %v", err)
	}
	if d.Resource == "fast" {
		t.Fatalf("dispatched to the dead peer: %+v", d)
	}
	// One failure recorded against the dead peer, none tripped yet.
	if head.PeerTripped("fast") {
		t.Fatal("a single failure must not trip the breaker")
	}
}

func TestStaleAdvertisementExpires(t *testing.T) {
	gate := &testGate{down: map[string]bool{}}
	head, _, _ := trio(t, gate)
	head.AdvertTTL = 15

	// Fresh advert (pulled at 0) within TTL: forward to fast.
	d := head.Decide(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 22}, 12)
	if d.Kind != DecideForward || d.Peer.PeerName() != "fast" {
		t.Fatalf("fresh decision = %+v, want forward to fast", d)
	}
	// Past the TTL the advert no longer attracts dispatches.
	d = head.Decide(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 21}, 16)
	if d.Kind == DecideForward {
		t.Fatalf("expired advertisement still attracting dispatches: %+v", d)
	}
	// A new pull refreshes the entry.
	head.Pull(16)
	d = head.Decide(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 22}, 17)
	if d.Kind != DecideForward || d.Peer.PeerName() != "fast" {
		t.Fatalf("refreshed decision = %+v, want forward to fast", d)
	}
}

func TestPublisherExposesFaultCounters(t *testing.T) {
	gate := &testGate{down: map[string]bool{"fast": true}}
	head, _, _ := trio(t, gate) // trio pulls once with fast already down
	head.CountRedispatch()
	si, err := head.PullService()
	if err != nil {
		t.Fatal(err)
	}
	if si.FailedPulls != head.Stats().FailedPulls || si.FailedPulls == 0 {
		t.Fatalf("ServiceInfo.FailedPulls = %d, stats = %d", si.FailedPulls, head.Stats().FailedPulls)
	}
	if si.Redispatches != 1 {
		t.Fatalf("ServiceInfo.Redispatches = %d, want 1", si.Redispatches)
	}
}
