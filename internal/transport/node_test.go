package transport

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/xmlmsg"
)

// startNode builds an agent over a fresh scheduler and serves it on an
// ephemeral port. PullPeriod is shrunk so advertisement refresh happens
// within test time.
func startNode(t *testing.T, name string, hw pace.Hardware, nodes int) *Node {
	t.Helper()
	engine := pace.NewEngine()
	local, err := scheduler.NewLocal(scheduler.Config{
		Name: name, HW: hw, NumNodes: nodes,
		Policy: scheduler.NewFIFOPolicy(), Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(local, engine)
	if err != nil {
		t.Fatal(err)
	}
	a.PullPeriod = 0.05
	n, err := NewNode(a, pace.CaseStudyLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestNodeServiceQuery(t *testing.T) {
	n := startNode(t, "solo", pace.SunUltra10, 8)
	reply, kind, err := Call(n.Addr(), xmlmsg.NewServiceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindService {
		t.Fatalf("kind %v", kind)
	}
	si := reply.(*xmlmsg.ServiceInfo)
	if si.Local.HWType != "SunUltra10" || si.Local.NProc != 8 {
		t.Fatalf("service info %+v", si.Local)
	}
}

func TestNodeLocalDispatch(t *testing.T) {
	n := startNode(t, "solo", pace.SGIOrigin2000, 16)
	req := xmlmsg.NewWireRequest(201, "fft", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil)
	reply, _, err := Call(n.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(*xmlmsg.DispatchAck)
	if ack.Resource != "solo" || ack.TaskID == 0 {
		t.Fatalf("ack %+v", ack)
	}
}

func TestNodeUnknownApplication(t *testing.T) {
	n := startNode(t, "solo", pace.SGIOrigin2000, 16)
	req := xmlmsg.NewWireRequest(202, "doom", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil)
	if _, _, err := Call(n.Addr(), req); err == nil {
		t.Fatal("unknown app dispatched")
	}
}

// TestTwoNodeHierarchyOverTCP wires a fast head and a slow child as real
// TCP daemons and drives a request that must migrate from the slow child
// to the fast head through the wire protocol.
func TestTwoNodeHierarchyOverTCP(t *testing.T) {
	head := startNode(t, "fast", pace.SGIOrigin2000, 16)
	child := startNode(t, "slow", pace.SunSPARCstation2, 16)

	// Wire the hierarchy through remote peers.
	if err := child.SetUpper(&RemotePeer{Name: "fast", Addr: head.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := head.AddLower(&RemotePeer{Name: "slow", Addr: child.Addr()}); err != nil {
		t.Fatal(err)
	}
	// Wait for at least one advertisement pull on both sides.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if child.Stats().Pulls > 1 && head.Stats().Pulls > 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// sweep3d with a 10-second deadline: impossible on the SPARCstation
	// (min 24s), fine on the Origin (min 4s).
	req := xmlmsg.NewWireRequest(203, "sweep3d", "test", 10, "u@g", xmlmsg.ModeDiscover, nil)
	reply, _, err := Call(child.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(*xmlmsg.DispatchAck)
	if ack.Resource != "fast" {
		t.Fatalf("request landed on %s, want fast (via TCP forward)", ack.Resource)
	}
}

func TestNodeDirectSubmission(t *testing.T) {
	n := startNode(t, "solo", pace.SunSPARCstation2, 4)
	// Direct mode bypasses discovery: even an impossible deadline queues.
	req := xmlmsg.NewWireRequest(204, "sweep3d", "test", 1, "u@g", xmlmsg.ModeDirect, nil)
	reply, _, err := Call(n.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(*xmlmsg.DispatchAck)
	if ack.Resource != "solo" || !ack.Fallback {
		t.Fatalf("direct ack %+v", ack)
	}
}

func TestRemotePeerPullService(t *testing.T) {
	n := startNode(t, "solo", pace.SunUltra5, 16)
	p := &RemotePeer{Name: "solo", Addr: n.Addr()}
	si, err := p.PullService()
	if err != nil {
		t.Fatal(err)
	}
	if si.HWType != "SunUltra5" || si.NProc != 16 || si.Name != "solo" {
		t.Fatalf("pulled %+v", si)
	}
	if p.PeerName() != "solo" {
		t.Fatal("peer name wrong")
	}
}

// TestServiceRoundTripsTheWire checks that an agent's advertisement is
// what Fig. 5 carries: rendered for the wire and parsed back it is the
// advertisement the agent published, whatever the agent has counted.
func TestServiceRoundTripsTheWire(t *testing.T) {
	engine := pace.NewEngine()
	local, err := scheduler.NewLocal(scheduler.Config{
		Name: "S3", HW: pace.SunUltra10, NumNodes: 16, Environments: []string{"test", "mpi"},
		Policy: scheduler.NewFIFOPolicy(), Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(local, engine)
	if err != nil {
		t.Fatal(err)
	}
	a.CountRedispatch()
	for _, ft := range []float64{0, 1, 86399, 123456} {
		local.AdvanceTo(ft)
		si, _ := a.PullService()
		if si.Freetime != ft {
			t.Fatalf("advertised freetime %v at %v", si.Freetime, ft)
		}
		wire := serviceToWire("S3", xmlmsg.Endpoint{Address: "10.0.0.3", Port: 7003}, si)
		got, err := serviceFromWire("S3", &wire)
		if err != nil || !reflect.DeepEqual(got, si) {
			t.Fatalf("%+v crossed the wire as %+v, %v", si, got, err)
		}
	}
}

// TestRequestRoundTripsTheWire checks the request and dispatch-ack pair:
// rendered for the wire and parsed back, a request and the dispatch that
// answers it are what the agent sent. Times are integral, because the wire
// carries timestamps at one-second resolution.
func TestRequestRoundTripsTheWire(t *testing.T) {
	lib := pace.CaseStudyLibrary()
	app, _ := lib.Lookup("sweep3d")
	n := &Node{lib: lib}
	for _, req := range []agent.Request{
		{ReqID: 7, App: app, Env: "test", Deadline: 0, Email: "u@g"},
		{ReqID: 1 << 40, App: app, Env: "mpi", Deadline: 86399, Email: "u@g", Visited: []string{"S12", "S4"}},
	} {
		wire := requestToWire(req, xmlmsg.ModeDirect)
		if wire.Mode != xmlmsg.ModeDirect {
			t.Fatalf("mode %q crossed the wire as %q", xmlmsg.ModeDirect, wire.Mode)
		}
		got, err := n.requestFromWire(&wire)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%+v crossed the wire as %+v, %v", req, got, err)
		}
	}
	for _, d := range []agent.Dispatch{
		{Resource: "S1", TaskID: 3, ReqID: 7, Eta: 120},
		{Resource: "S12", TaskID: 41, ReqID: 1 << 40, Eta: 77648, Hops: 2, Fallback: true},
	} {
		wire := dispatchToWire(d)
		got, err := dispatchFromWire(&wire)
		if err != nil || got != d {
			t.Fatalf("%+v crossed the wire as %+v, %v", d, got, err)
		}
	}
}

func TestRemotePeerUnreachable(t *testing.T) {
	p := &RemotePeer{Name: "ghost", Addr: "127.0.0.1:1"}
	if _, err := p.PullService(); err == nil {
		t.Fatal("pull from unreachable peer succeeded")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(nil, pace.CaseStudyLibrary()); err == nil {
		t.Fatal("nil agent accepted")
	}
}

func TestPushedAdvertisementOverTCP(t *testing.T) {
	receiver := startNode(t, "rx", pace.SGIOrigin2000, 16)

	// Push a synthetic advertisement claiming "tx" is free at t=99.
	msg := xmlmsg.NewServiceInfo(xmlmsg.Endpoint{}, xmlmsg.Endpoint{}, "SunUltra5", 16, []string{"test"}, 99)
	msg.Local.Name = "tx"
	reply, kind, err := Call(receiver.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindService {
		t.Fatalf("push reply kind %v", kind)
	}
	// The reply is the receiver's own advertisement (push = exchange).
	back := reply.(*xmlmsg.ServiceInfo)
	if back.Local.Name != "rx" || back.Local.HWType != "SGIOrigin2000" {
		t.Fatalf("push exchange reply: %+v", back.Local)
	}
	// The pushed entry is now in the receiver's service set.
	found := false
	for _, n := range receiver.CachedServiceNames() {
		if n == "tx" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pushed advertisement not stored: %v", receiver.CachedServiceNames())
	}
	if receiver.Stats().PushesReceived == 0 {
		t.Fatalf("push not counted: %+v", receiver.Stats())
	}
}

func TestPushedAdvertisementWithoutNameRejected(t *testing.T) {
	receiver := startNode(t, "rx", pace.SGIOrigin2000, 16)
	msg := xmlmsg.NewServiceInfo(xmlmsg.Endpoint{}, xmlmsg.Endpoint{}, "SunUltra5", 16, []string{"test"}, 5)
	if _, _, err := Call(receiver.Addr(), msg); err == nil {
		t.Fatal("nameless push accepted")
	}
}

func TestNodePushOnAccept(t *testing.T) {
	head := startNode(t, "fast", pace.SGIOrigin2000, 16)
	child := startNode(t, "slow", pace.SunSPARCstation2, 16)
	head.SetPushEnabled(true)
	if err := child.SetUpper(&RemotePeer{Name: "fast", Addr: head.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := head.AddLower(&RemotePeer{Name: "slow", Addr: child.Addr()}); err != nil {
		t.Fatal(err)
	}
	// Accept work at the head; its freetime jumps past the threshold and
	// the push delivers the fresh advertisement to the child.
	req := xmlmsg.NewWireRequest(205, "improc", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil)
	if _, _, err := Call(head.Addr(), req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if child.Stats().PushesReceived > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if child.Stats().PushesReceived == 0 {
		t.Fatal("accepting work did not push an advertisement to the neighbour")
	}
	if head.Stats().PushesSent == 0 {
		t.Fatalf("head did not count its push: %+v", head.Stats())
	}
}

func TestResultsQueryOverTCP(t *testing.T) {
	n := startNode(t, "solo", pace.SGIOrigin2000, 16)
	// Submit two tasks under different emails.
	for i, email := range []string{"alice@grid", "bob@grid"} {
		req := xmlmsg.NewWireRequest(uint64(300+i), "closure", "test", 1e6, email, xmlmsg.ModeDiscover, nil)
		if _, _, err := Call(n.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	reply, kind, err := Call(n.Addr(), xmlmsg.NewResultsQuery(""))
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindResults {
		t.Fatalf("kind %v", kind)
	}
	rs := reply.(*xmlmsg.ResultSet)
	if len(rs.Tasks) != 2 {
		t.Fatalf("%d results, want 2", len(rs.Tasks))
	}
	for _, tr := range rs.Tasks {
		if tr.App != "closure" || tr.Resource != "solo" || tr.NProc == 0 {
			t.Fatalf("result %+v", tr)
		}
	}
	// Email filter narrows to one.
	reply, _, err = Call(n.Addr(), xmlmsg.NewResultsQuery("alice@grid"))
	if err != nil {
		t.Fatal(err)
	}
	rs = reply.(*xmlmsg.ResultSet)
	if len(rs.Tasks) != 1 || rs.Tasks[0].Email != "alice@grid" {
		t.Fatalf("filtered results %+v", rs.Tasks)
	}
	// closure on 16 idle SGI nodes takes 2 virtual seconds; immediately
	// after submission it is still running, and done after it elapses.
	if rs.Tasks[0].Done {
		t.Fatal("task reported done immediately")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		reply, _, err = Call(n.Addr(), xmlmsg.NewResultsQuery("alice@grid"))
		if err != nil {
			t.Fatal(err)
		}
		if reply.(*xmlmsg.ResultSet).Tasks[0].Done {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("task never completed")
}
