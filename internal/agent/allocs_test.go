//go:build !race

package agent

import "testing"

// TestFloodQuoteAllocs: a warmed Best = 1 flood over 120 agents
// allocates one object per hop, the reply it returns, and nothing for
// the path: a caller's path stack is written in place, and an origin
// handed none allocates one. (Not under -race, whose runtime allocates
// on its own.)
func TestFloodQuoteAllocs(t *testing.T) {
	const n = 120
	agents, gate := ternary(t, n)
	path := make([]string, 0, pathCap)
	for _, origin := range []*Agent{agents[0], agents[n-1]} {
		op := ReserveOp{Action: ReserveQuoteOp, Nodes: 2, Earliest: 100, Duration: 50, Best: 1}
		flood := func() {
			rep, err := origin.HandleReserve(op, 0)
			if err != nil || len(rep.Quotes) != 1 {
				t.Fatalf("flood from %s: %+v, %v", origin.Name(), rep, err)
			}
		}
		flood() // the first quote opens every resource's book
		gate.total = 0
		op.Visited = path
		if got := testing.AllocsPerRun(20, flood); got > n {
			t.Fatalf("flood from %s with a path stack: %v allocations, want at most %d (one per hop)", origin.Name(), got, n)
		}
		if gate.total != 21*(n-1) {
			t.Fatalf("flood from %s: %d exchanges over 21 floods, want %d each", origin.Name(), gate.total, n-1)
		}
		op.Visited = nil
		if got := testing.AllocsPerRun(20, flood); got > n+1 {
			t.Fatalf("flood from %s: %v allocations, want at most %d (one per hop and the path stack)", origin.Name(), got, n+1)
		}
	}
}
