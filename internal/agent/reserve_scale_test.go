package agent

import (
	"fmt"
	"testing"

	"repro/internal/pace"
)

// countingGate lets every exchange through and counts them, in total and
// per callee. Every peer call of the reservation protocol asks the gate
// first, so its count is the protocol's exchange count.
type countingGate struct {
	total int
	to    map[string]int
}

func (g *countingGate) ExchangeErr(from, to string, now float64) error {
	g.total++
	g.to[to]++
	return nil
}

func (g *countingGate) AgentDown(string) bool { return false }

// ternary builds n four-node agents A0…A(n-1) behind one counting gate,
// agent i under agent (i-1)/3.
func ternary(t *testing.T, n int) ([]*Agent, *countingGate) {
	t.Helper()
	e := pace.NewEngine()
	gate := &countingGate{to: map[string]int{}}
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = newAgent(t, fmt.Sprintf("A%d", i), pace.SGIOrigin2000, 4, e)
		agents[i].SetGate(gate)
		if i > 0 {
			if err := Link(agents[(i-1)/3], agents[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return agents, gate
}

// TestShopExchangesGrowLinearly is the guard on the cost of shopping: a
// single-part reservation is one flood (N-1 exchanges, each other agent
// asked once) and one routed hold (at most N-1 more), at every size — so
// a per-resource re-quote, ~N²/2 exchanges, cannot come back unnoticed.
func TestShopExchangesGrowLinearly(t *testing.T) {
	for _, n := range []int{40, 160, 640} {
		agents, gate := ternary(t, n)
		// Shopped from the last leaf; on an idle grid every quote ties and
		// the root's name sorts first, so the hold is routed to the root.
		held, err := agents[n-1].ShopReservation(ReservationSpec{
			ResvID: 1, Holder: "u@g", Nodes: 2, Parts: 1, Earliest: 100, Duration: 50, TTL: 30, MaxSlip: -1,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if held.Parts[0].Resource != "A0" {
			t.Fatalf("n=%d: held on %s, want the root", n, held.Parts[0].Resource)
		}
		if gate.total < n-1 || gate.total > 2*(n-1) {
			t.Fatalf("n=%d: %d exchanges for one single-part reservation, want one flood (%d) plus a routed hold (<= %d)",
				n, gate.total, n-1, n-1)
		}
		// The hold climbs through the shopper's ancestors; its sibling
		// leaf hears of the reservation only through floods.
		if got := gate.to[agents[n-2].Name()]; got != 1 {
			t.Fatalf("n=%d: a leaf off the hold's path was asked %d times, want once (one flood)", n, got)
		}
	}
}

// TestCoAllocationFloodsOncePerRound books a grid so that a two-part
// co-allocation from the root needs exactly two re-quote rounds, and
// counts one flood for the first quote plus one per round: the round
// that would only confirm a stable choice is not run.
func TestCoAllocationFloodsOncePerRound(t *testing.T) {
	const n = 40
	agents, gate := ternary(t, n)
	book := func(a *Agent, start, end float64) {
		t.Helper()
		if err := a.Local().HoldReservation(99, "pre", 0b1111, start, end, 0, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	// A0 is free until 120 and again from 200, A1 from 100, the rest from
	// 1000. For 100 s: at 0 the offers are A0@0 and A1@100; at 100 A0 no
	// longer fits before its booking and offers 200; at 200 both offer 200.
	book(agents[0], 120, 200)
	book(agents[1], 0, 100)
	for _, a := range agents[2:] {
		book(a, 0, 1000)
	}
	held, err := agents[0].ShopReservation(ReservationSpec{
		ResvID: 1, Holder: "u@g", Nodes: 2, Parts: 2, Earliest: 0, Duration: 100, TTL: 30, MaxSlip: -1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if held.Start != 200 || len(held.Parts) != 2 {
		t.Fatalf("held = %+v, want two parts at 200", held)
	}
	// A0 holds its own part locally and A1 is its first lower, so the two
	// holds cost one exchange; everything else is floods.
	const floods = 3
	if gate.total != floods*(n-1)+1 {
		t.Fatalf("%d exchanges, want %d floods of %d and one routed hold", gate.total, floods, n-1)
	}
	if got := gate.to[agents[n-1].Name()]; got != floods {
		t.Fatalf("the last leaf was asked %d times, want once per flood (%d)", got, floods)
	}
}
