package agent

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pace"
	"repro/internal/reserve"
)

// trio builds a three-agent chain head -> mid -> leaf so routed ops must
// traverse an intermediate hop.
func resvTrio(t *testing.T, engine *pace.Engine) (head, mid, leaf *Agent) {
	t.Helper()
	head = newAgent(t, "head", pace.SGIOrigin2000, 4, engine)
	mid = newAgent(t, "mid", pace.SGIOrigin2000, 4, engine)
	leaf = newAgent(t, "leaf", pace.SGIOrigin2000, 4, engine)
	if err := Link(head, mid); err != nil {
		t.Fatal(err)
	}
	if err := Link(mid, leaf); err != nil {
		t.Fatal(err)
	}
	return head, mid, leaf
}

func TestFloodQuoteCoversHierarchy(t *testing.T) {
	e := pace.NewEngine()
	head, _, _ := resvTrio(t, e)
	rep, err := head.HandleReserve(ReserveOp{Action: ReserveQuoteOp, Nodes: 2, Earliest: 50, Duration: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quotes) != 3 {
		t.Fatalf("quotes = %+v, want one per resource", rep.Quotes)
	}
	for _, q := range rep.Quotes {
		if q.Start != 50 || q.End != 150 || bits.OnesCount64(q.Mask) != 2 {
			t.Fatalf("idle-grid quote %+v, want [50,150) on 2 nodes", q)
		}
	}
}

func TestRoutedOpsReachLeaf(t *testing.T) {
	e := pace.NewEngine()
	head, _, leaf := resvTrio(t, e)
	op := ReserveOp{
		Action: ReserveHoldOp, ResvID: 7, Holder: "u@g", Resource: "leaf",
		Mask: 0b0011, Start: 100, End: 200, TTL: 30,
	}
	if _, err := head.HandleReserve(op, 0); err != nil {
		t.Fatalf("routed hold: %v", err)
	}
	b, ok := leaf.Local().Book().Get(7)
	if !ok || b.State != reserve.Held {
		t.Fatalf("leaf booking = %+v ok=%v, want held", b, ok)
	}
	id, err := head.ConfirmPart("leaf", 7, 77, appOf(t, "fft"), 1)
	if err != nil || id == 0 {
		t.Fatalf("routed confirm: id=%d err=%v", id, err)
	}
	if err := head.ReleasePart("leaf", 7, 2); err != nil {
		t.Fatalf("routed release: %v", err)
	}
	if b, _ := leaf.Local().Book().Get(7); b.State != reserve.Released {
		t.Fatalf("state after release = %s", b.State)
	}
	// An op for a resource that does not exist is a routing miss, not an
	// application error.
	if _, err := head.HandleReserve(ReserveOp{Action: ReserveReleaseOp, ResvID: 7, Resource: "ghost"}, 3); !IsNotRoutable(err) {
		t.Fatalf("ghost target error = %v, want routing miss", err)
	}
}

func TestShopSingleResource(t *testing.T) {
	e := pace.NewEngine()
	head, mid, _ := resvTrio(t, e)
	// Book the whole head and mid resources over the requested window so
	// shopping must settle on the leaf.
	for _, a := range []*Agent{head, mid} {
		if err := a.Local().HoldReservation(99, "x@g", 0b1111, 0, 1e6, 0, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	held, err := head.ShopReservation(ReservationSpec{
		ResvID: 1, Holder: "u@g", Nodes: 2, Parts: 1,
		Earliest: 100, Duration: 50, TTL: 30, MaxSlip: -1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Parts) != 1 || held.Parts[0].Resource != "leaf" || held.Start != 100 || held.End != 150 {
		t.Fatalf("held = %+v, want leaf at [100,150)", held)
	}
}

func TestShopCoAllocationCommonWindow(t *testing.T) {
	e := pace.NewEngine()
	head, mid, leaf := resvTrio(t, e)
	// Stagger availability: mid is booked until 300, leaf until 500, so a
	// three-part co-allocation's common window cannot start before 500.
	if err := mid.Local().HoldReservation(90, "x@g", 0b1111, 0, 300, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Local().HoldReservation(91, "x@g", 0b1111, 0, 500, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	held, err := head.ShopReservation(ReservationSpec{
		ResvID: 2, Holder: "u@g", Nodes: 2, Parts: 3,
		Earliest: 0, Duration: 50, TTL: 30, MaxSlip: -1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if held.Start != 500 || held.End != 550 || len(held.Parts) != 3 {
		t.Fatalf("held = %+v, want 3 parts at [500,550)", held)
	}
	seen := map[string]bool{}
	for _, p := range held.Parts {
		seen[p.Resource] = true
	}
	if !seen["head"] || !seen["mid"] || !seen["leaf"] {
		t.Fatalf("parts = %+v, want all three resources", held.Parts)
	}
	// Every part is held on its book for the common window.
	for _, a := range []*Agent{head, mid, leaf} {
		b, ok := a.Local().Book().Get(2)
		if !ok || b.State != reserve.Held || b.Start != 500 || b.End != 550 {
			t.Fatalf("%s booking = %+v ok=%v", a.Name(), b, ok)
		}
	}
}

func TestShopMaxSlipRejectsAndHoldsNothing(t *testing.T) {
	e := pace.NewEngine()
	head, mid, leaf := resvTrio(t, e)
	if err := leaf.Local().HoldReservation(91, "x@g", 0b1111, 0, 500, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	_, err := head.ShopReservation(ReservationSpec{
		ResvID: 3, Holder: "u@g", Nodes: 2, Parts: 3,
		Earliest: 0, Duration: 50, TTL: 30, MaxSlip: 100,
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "slip") {
		t.Fatalf("err = %v, want slip rejection", err)
	}
	for _, a := range []*Agent{head, mid} {
		if bk := a.Local().Book(); bk != nil {
			if _, ok := bk.Get(3); ok {
				t.Fatalf("%s holds a booking after a rejected shop", a.Name())
			}
		}
	}
}

func TestShopTooFewResourcesForParts(t *testing.T) {
	e := pace.NewEngine()
	head, _, _ := resvTrio(t, e)
	_, err := head.ShopReservation(ReservationSpec{
		ResvID: 4, Holder: "u@g", Nodes: 2, Parts: 4,
		Earliest: 0, Duration: 50, TTL: 30, MaxSlip: -1,
	}, 0)
	if err == nil {
		t.Fatal("4-part co-allocation on a 3-resource grid succeeded")
	}
}

// pathRecorder is a neighbour that notes the path each reserve op
// arrived with (its own name first) before handling it.
type pathRecorder struct {
	*Agent
	seen *[][]string
}

func (p pathRecorder) HandleReserve(op ReserveOp, now float64) (ReserveReply, error) {
	*p.seen = append(*p.seen, append([]string{p.name}, op.Visited...))
	return p.Agent.HandleReserve(op, now)
}

// TestReservePathStack pins the contract of the in-place path: a routed
// hold that reaches its target only after a sibling subtree dead-ended
// arrives with the path it took and no name from that subtree, and the
// caller's op.Visited[:len] is never changed, from an origin or from a
// caller that handed in a path of its own.
//
//	H ─┬─ X ── X1
//	   └─ Y ── T ── G
func TestReservePathStack(t *testing.T) {
	e := pace.NewEngine()
	mk := func(name string) *Agent { return newAgent(t, name, pace.SGIOrigin2000, 4, e) }
	h, x, x1, y, tt, g := mk("H"), mk("X"), mk("X1"), mk("Y"), mk("T"), mk("G")
	for _, edge := range [][2]*Agent{{h, x}, {h, y}, {y, tt}} {
		if err := Link(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	var seen [][]string
	for _, edge := range [][2]*Agent{{x, x1}, {tt, g}} {
		if err := edge[1].SetUpper(edge[0]); err != nil {
			t.Fatal(err)
		}
		if err := edge[0].AddLower(pathRecorder{edge[1], &seen}); err != nil {
			t.Fatal(err)
		}
	}
	hold := func(id uint64, visited []string) {
		t.Helper()
		seen = nil
		if _, err := h.HandleReserve(ReserveOp{
			Action: ReserveHoldOp, ResvID: id, Holder: "u@g", Resource: "G",
			Mask: 0b0011, Start: 100 * float64(id), End: 100*float64(id) + 50, TTL: 30, Visited: visited,
		}, 0); err != nil {
			t.Fatalf("hold %d: %v", id, err)
		}
		if b, ok := g.Local().Book().Get(id); !ok || b.State != reserve.Held {
			t.Fatalf("hold %d did not reach G: %+v ok=%v", id, b, ok)
		}
	}
	want := func(paths ...[]string) {
		t.Helper()
		if !reflect.DeepEqual(seen, paths) {
			t.Fatalf("paths seen %q, want %q", seen, paths)
		}
	}

	hold(1, nil)
	want([]string{"X1", "H", "X"}, []string{"G", "H", "Y", "T"})

	// A caller's own path: the stack grows from its end, and the prefix
	// the caller can see stays as it was.
	buf := []string{"portal", "stale", "stale", "stale", "stale"}
	hold(2, buf[:1])
	want([]string{"X1", "portal", "H", "X"}, []string{"G", "portal", "H", "Y", "T"})
	if buf[0] != "portal" {
		t.Fatalf("caller's path became %q", buf[:1])
	}

	for _, best := range []int{0, 1} {
		seen = nil
		rep, err := h.HandleReserve(ReserveOp{
			Action: ReserveQuoteOp, Nodes: 2, Earliest: 300, Duration: 10, Best: best, Visited: buf[:1],
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantQuotes := 6
		if best > 0 {
			wantQuotes = best
		}
		if len(rep.Quotes) != wantQuotes {
			t.Fatalf("Best=%d flood: %d quotes, want %d", best, len(rep.Quotes), wantQuotes)
		}
		want([]string{"X1", "portal", "H", "X"}, []string{"G", "portal", "H", "Y", "T"})
		if buf[0] != "portal" {
			t.Fatalf("Best=%d flood changed the caller's path to %q", best, buf[:1])
		}
	}
}
