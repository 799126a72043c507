package transport

import (
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/reserve"
	"repro/internal/xmlmsg"
)

// TestReservationOverTCP drives the full reservation protocol across two
// real TCP daemons: flood quote from the head, then a routed hold,
// confirm and release against the child resource.
func TestReservationOverTCP(t *testing.T) {
	head := startNode(t, "rhead", pace.SGIOrigin2000, 8)
	child := startNode(t, "rchild", pace.SGIOrigin2000, 8)
	lib := pace.CaseStudyLibrary()
	if err := child.SetUpper(&RemotePeer{Name: "rhead", Addr: head.Addr(), Lib: lib}); err != nil {
		t.Fatal(err)
	}
	if err := head.AddLower(&RemotePeer{Name: "rchild", Addr: child.Addr(), Lib: lib}); err != nil {
		t.Fatal(err)
	}

	// Flood quote: both resources answer through the wire.
	quote := xmlmsg.Reserve{
		Type: "reserve", Action: xmlmsg.ReserveActionQuote,
		Nodes: 2, Earliest: xmlmsg.FormatSeconds(1e5), Duration: xmlmsg.FormatSeconds(50),
	}
	reply, kind, err := Call(head.Addr(), quote)
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindReserveAck {
		t.Fatalf("kind %v", kind)
	}
	ack := reply.(*xmlmsg.ReserveAck)
	if len(ack.Quotes) != 2 {
		t.Fatalf("quotes %+v, want both resources", ack.Quotes)
	}
	for _, q := range ack.Quotes {
		if s, _ := xmlmsg.ParseSeconds(q.Start); s != 1e5 {
			t.Fatalf("idle-grid quote %+v, want start 1e5", q)
		}
	}
	// The origin sorts: equal starts order by resource, not by the walk
	// (which meets rhead first).
	if ack.Quotes[0].Resource != "rchild" || ack.Quotes[1].Resource != "rhead" {
		t.Fatalf("origin reply %+v, want (start, resource) order", ack.Quotes)
	}

	// Hold routed head -> child, then confirm, then release.
	hold := xmlmsg.Reserve{
		Type: "reserve", Action: xmlmsg.ReserveActionHold,
		ResvID: 5, Resource: "rchild", Holder: "u@g",
		Mask:  xmlmsg.FormatMask(0b11),
		Start: xmlmsg.FormatSeconds(1e5), End: xmlmsg.FormatSeconds(1e5 + 50),
		TTL: xmlmsg.FormatSeconds(3600),
	}
	if _, _, err := Call(head.Addr(), hold); err != nil {
		t.Fatalf("routed hold: %v", err)
	}
	if b, ok := child.Agent().Local().Book().Get(5); !ok || b.State != reserve.Held {
		t.Fatalf("child booking = %+v ok=%v", b, ok)
	}

	// With two of rchild's nodes held, seven nodes are free there only
	// after the window. Shopped from rchild the walk meets rchild first;
	// its reply must still lead with the earlier start on rhead, which
	// as an interior node returned its quote unsorted.
	quote.Nodes = 7
	reply, _, err = Call(child.Addr(), quote)
	if err != nil {
		t.Fatal(err)
	}
	ack = reply.(*xmlmsg.ReserveAck)
	if len(ack.Quotes) != 2 || ack.Quotes[0].Resource != "rhead" || ack.Quotes[1].Resource != "rchild" ||
		ack.Quotes[0].Start != xmlmsg.FormatSeconds(1e5) || ack.Quotes[1].Start != xmlmsg.FormatSeconds(1e5+50) {
		t.Fatalf("origin reply %+v, want rhead at 1e5 before rchild at 1e5+50", ack.Quotes)
	}

	confirm := xmlmsg.Reserve{
		Type: "reserve", Action: xmlmsg.ReserveActionConfirm,
		ResvID: 5, Resource: "rchild", ReqID: 55, Model: "fft",
	}
	creply, _, err := Call(head.Addr(), confirm)
	if err != nil {
		t.Fatalf("routed confirm: %v", err)
	}
	if cack := creply.(*xmlmsg.ReserveAck); cack.TaskID == 0 {
		t.Fatalf("confirm ack %+v, want a task id", cack)
	}

	release := xmlmsg.Reserve{
		Type: "reserve", Action: xmlmsg.ReserveActionRelease,
		ResvID: 5, Resource: "rchild",
	}
	if _, _, err := Call(head.Addr(), release); err != nil {
		t.Fatalf("routed release: %v", err)
	}
	if b, _ := child.Agent().Local().Book().Get(5); b.State != reserve.Released {
		t.Fatalf("state after release = %s", b.State)
	}

	// A ghost target is a routing miss with its identity preserved
	// through the ErrorReply round trip, and the origin's context on it.
	ghost := xmlmsg.Reserve{
		Type: "reserve", Action: xmlmsg.ReserveActionRelease,
		ResvID: 5, Resource: "ghost",
	}
	_, _, err = Call(head.Addr(), ghost)
	if err == nil || !agent.IsNotRoutable(err) || !strings.Contains(err.Error(), "no path from rhead to ghost") {
		t.Fatalf("ghost error = %v, want routing miss", err)
	}

	// An interior node's dead end crosses the wire as the bare sentinel:
	// no origin context, yet still a routing miss to the node that asked.
	interior := &RemotePeer{Name: "rchild", Addr: child.Addr(), Lib: lib}
	_, err = interior.HandleReserve(agent.ReserveOp{
		Action: agent.ReserveReleaseOp, ResvID: 5, Resource: "ghost", Visited: []string{"rhead"},
	}, 0)
	if !agent.IsNotRoutable(err) || strings.Contains(err.Error(), "no path") {
		t.Fatalf("interior dead end = %v, want the bare routing miss", err)
	}

	// A refusal from the target (double release) propagates as the
	// protocol answer, not a routing miss.
	_, _, err = Call(head.Addr(), release)
	if err == nil || agent.IsNotRoutable(err) || !strings.Contains(err.Error(), "release") {
		t.Fatalf("double release error = %v, want release refusal", err)
	}
}
