package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/xmlmsg"
)

// The tests in this file pin what a node inherits by running the agent's
// own protocol code behind the hostedPeer seam: failure re-routing, the
// clock floor, and freedom from the lock-order deadlock.

// startSeamNode is startNode with the knobs these tests turn: the clock
// tick and the execution environments. The breaker threshold is raised out
// of reach so a dead neighbour keeps being tried — the tests are about the
// exchange that fails, not about the breaker that would soon hide it.
func startSeamNode(t *testing.T, name string, hw pace.Hardware, tick time.Duration, envs ...string) *Node {
	t.Helper()
	engine := pace.NewEngine()
	local, err := scheduler.NewLocal(scheduler.Config{
		Name: name, HW: hw, NumNodes: 16,
		Policy: scheduler.NewFIFOPolicy(), Engine: engine, Environments: envs,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(local, engine)
	if err != nil {
		t.Fatal(err)
	}
	a.PullPeriod = 0.05
	a.FailureThreshold = 1 << 20
	n, err := NewNode(a, pace.CaseStudyLibrary())
	if err != nil {
		t.Fatal(err)
	}
	n.SetTickPeriod(tick)
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// linkNodes wires child under parent over the wire, both directions.
func linkNodes(t *testing.T, parent, child *Node) {
	t.Helper()
	if err := child.SetUpper(&RemotePeer{Name: parent.Agent().Name(), Addr: parent.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := parent.AddLower(&RemotePeer{Name: child.Agent().Name(), Addr: child.Addr()}); err != nil {
		t.Fatal(err)
	}
}

// awaitAdverts blocks until every node has cached want advertisements.
func awaitAdverts(t *testing.T, want int, nodes ...*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for len(n.CachedServiceNames()) < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s cached %v, want %d advertisements", n.Agent().Name(), n.CachedServiceNames(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// submit sends one discovery request and returns the ack.
func submit(t *testing.T, to *Node, reqID uint64, app, env string, deadline float64) *xmlmsg.DispatchAck {
	t.Helper()
	reply, _, err := Call(to.Addr(), xmlmsg.NewWireRequest(reqID, app, env, deadline, "u@g", xmlmsg.ModeDiscover, nil))
	if err != nil {
		t.Fatalf("request %d at %s: %v", reqID, to.Agent().Name(), err)
	}
	return reply.(*xmlmsg.DispatchAck)
}

// TestDeadNeighbourFallsBackOverTCP: the matched neighbour died after its
// last advertisement. The simulator has always re-entered escalation and
// the best-effort fallback there; a node used to hand the submitter the
// dial error.
func TestDeadNeighbourFallsBackOverTCP(t *testing.T) {
	head := startSeamNode(t, "fast", pace.SGIOrigin2000, DefaultTickPeriod)
	child := startSeamNode(t, "slow", pace.SunSPARCstation2, DefaultTickPeriod)
	linkNodes(t, head, child)
	awaitAdverts(t, 1, head, child)
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}

	// sweep3d by t=10 is impossible on the SPARCstation (24 s) and the
	// cached advertisement still says the Origin (4 s) can do it.
	ack := submit(t, child, 901, "sweep3d", "test", 10)
	if ack.Resource != "slow" || !ack.Fallback {
		t.Fatalf("ack %+v, want the task on slow by fallback", ack)
	}
	if st := child.Stats(); st.Forwarded != 1 || st.Fallbacks != 1 || st.LocalAccept != 1 {
		t.Fatalf("stats %+v, want one forward, one fallback, one local accept", st)
	}
}

// TestDeadNeighbourEscalatesOverTCP is the escalation twin on a chain
// top — mid — low: mid's best match (low) is dead, so the request goes up
// and top, which can meet the deadline itself, takes it.
func TestDeadNeighbourEscalatesOverTCP(t *testing.T) {
	top := startSeamNode(t, "top", pace.SunUltra10, DefaultTickPeriod)
	mid := startSeamNode(t, "mid", pace.SunSPARCstation2, DefaultTickPeriod)
	low := startSeamNode(t, "low", pace.SGIOrigin2000, DefaultTickPeriod)
	linkNodes(t, top, mid)
	linkNodes(t, mid, low)
	awaitAdverts(t, 2, mid)
	awaitAdverts(t, 1, top)
	if err := low.Close(); err != nil {
		t.Fatal(err)
	}

	// By t=15: not on mid (24 s), on low (4 s) or top (5.6 s); low's
	// advertisement wins the match.
	ack := submit(t, mid, 902, "sweep3d", "test", 15)
	if ack.Resource != "top" || ack.Fallback {
		t.Fatalf("ack %+v, want the task on top within its deadline", ack)
	}
	if st := mid.Stats(); st.Forwarded != 1 || st.Escalated != 1 || st.LocalAccept != 0 {
		t.Fatalf("mid stats %+v, want one forward then one escalation", st)
	}
}

// TestStaleClockAfterFailedExchangeOverTCP: the agent was called with a
// now read before an exchange that spent tens of milliseconds retrying a
// dead peer, while the node's 1 ms tick advanced the scheduler underneath
// it. Submitting at that stale now would panic the scheduler ("clock
// moved backwards"); AcceptLocal floors it.
func TestStaleClockAfterFailedExchangeOverTCP(t *testing.T) {
	head := startSeamNode(t, "fast", pace.SGIOrigin2000, time.Millisecond)
	child := startSeamNode(t, "slow", pace.SunSPARCstation2, time.Millisecond)
	linkNodes(t, head, child)
	awaitAdverts(t, 1, head, child)
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ack := submit(t, child, uint64(910+i), "sweep3d", "test", 10); ack.Resource != "slow" {
			t.Fatalf("ack %+v, want the task on slow", ack)
		}
	}
}

// TestMutualForwardingOverTCP has two nodes forward at each other from 8
// goroutines each: every request at a needs the environment only b offers
// and the reverse. Were the node lock held across an exchange, a's handler
// would wait for b's lock while b's waits for a's.
func TestMutualForwardingOverTCP(t *testing.T) {
	a := startSeamNode(t, "a", pace.SGIOrigin2000, time.Millisecond, "ea")
	b := startSeamNode(t, "b", pace.SGIOrigin2000, time.Millisecond, "eb")
	linkNodes(t, a, b)
	awaitAdverts(t, 1, a, b)

	const workers, each = 8, 10
	errs := make(chan error, 2*workers*each) // one slot per request: senders never block
	var wg sync.WaitGroup
	for w := 0; w < 2*workers; w++ {
		at, env, want := a, "eb", "b"
		if w%2 == 1 {
			at, env, want = b, "ea", "a"
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(1000 + w*each + i)
				reply, _, err := Call(at.Addr(), xmlmsg.NewWireRequest(id, "closure", env, 1e6, "u@g", xmlmsg.ModeDiscover, nil))
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", id, err)
				} else if ack := reply.(*xmlmsg.DispatchAck); ack.Resource != want {
					errs <- fmt.Errorf("request %d landed on %s, want %s", id, ack.Resource, want)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("mutual forwarding did not finish: nodes are waiting on each other's locks")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := a.Stats().LocalAccept + b.Stats().LocalAccept; got != 2*workers*each {
		t.Fatalf("%d tasks accepted, want %d", got, 2*workers*each)
	}
}

// TestMalformedEtaIsAnError: a peer whose ack carries an unparsable eta is
// reported, not read as eta 0.
func TestMalformedEtaIsAnError(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(interface{}, xmlmsg.Kind) (interface{}, error) {
		ack := xmlmsg.NewDispatchAck("stub", 1, 920, 5, 0, false)
		ack.Eta = "half past nine"
		return ack, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := &RemotePeer{Name: "stub", Addr: srv.Addr()}
	app, _ := pace.CaseStudyLibrary().Lookup("closure")
	if d, err := p.Handle(agent.Request{ReqID: 920, App: app, Env: "test", Deadline: 100}, 0); err == nil {
		t.Fatalf("malformed eta accepted: %+v", d)
	}
}
