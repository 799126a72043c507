package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pace"
	"repro/internal/scheduler"
)

// refFlood is the flood quote as it was before replies were bounded,
// kept as the oracle for the best-k flood: every hop copies the path,
// every interior agent concatenates its whole subtree's quotes in walk
// order, and only the origin deduplicates and sorts them. A neighbour
// is asked exactly as HandleReserve asks it (same skips, same gate, same
// breaker accounting), so a world flooded by refFlood stays in step with
// one flooded by HandleReserve.
func refFlood(a *Agent, op ReserveOp, now float64) ReserveReply {
	origin := len(op.Visited) == 0
	visited := make([]string, 0, len(op.Visited)+1)
	visited = append(visited, op.Visited...)
	visited = append(visited, a.name)
	op.Visited = visited

	var reply ReserveReply
	if q, err := a.local.QuoteReservation(op.Nodes, op.Earliest, op.Duration, now); err == nil {
		reply.Quotes = append(reply.Quotes, q)
	}
	for _, s := range a.slots {
		_, ok := s.peer.(ReservePeer)
		if !ok || s.unlinked || s.tripped || op.visited(s.name) {
			continue
		}
		if err := a.gateErr(s.name, now); err != nil {
			a.peerFailed(s)
			continue
		}
		var next *Agent
		switch p := s.peer.(type) {
		case *Agent:
			next = p
		case wireLikePeer:
			next = p.Agent
		default:
			panic(fmt.Sprintf("refFlood: peer %T", s.peer))
		}
		r := refFlood(next, op, now)
		a.recordExchange(s, nil)
		reply.Quotes = append(reply.Quotes, r.Quotes...)
	}
	if origin {
		reply.Quotes = refSortQuotes(reply.Quotes)
	}
	return reply
}

// refSortQuotes is the origin's dedup and sort as refFlood ran it.
func refSortQuotes(quotes []scheduler.ReserveQuote) []scheduler.ReserveQuote {
	seen := make(map[string]bool, len(quotes))
	uniq := quotes[:0]
	for _, q := range quotes {
		if !seen[q.Resource] {
			seen[q.Resource] = true
			uniq = append(uniq, q)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].Start != uniq[j].Start {
			return uniq[i].Start < uniq[j].Start
		}
		return uniq[i].Resource < uniq[j].Resource
	})
	return uniq
}

// wireLikePeer stands for a neighbour across the wire: Best does not
// travel, and the path arrives as a freshly decoded slice, so the
// subtree behind it replies in full and the asking agent trims.
type wireLikePeer struct{ *Agent }

func (p wireLikePeer) HandleReserve(op ReserveOp, now float64) (ReserveReply, error) {
	op.Best = 0
	op.Visited = slices.Clone(op.Visited)
	return p.Agent.HandleReserve(op, now)
}

// floodWorld builds one seeded random grid for the flood oracle: a
// random tree of 1–200 agents of mixed sizes, some edges wire-like,
// random holds in the books, committed best-effort work under random
// node floors, gated agents and tripped breakers.
func floodWorld(t *testing.T, seed int64) []*Agent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := pace.NewEngine()
	n := 1 + rng.Intn(200)
	hws := []pace.Hardware{pace.SGIOrigin2000, pace.SunUltra10, pace.SunSPARCstation2}
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = newAgent(t, fmt.Sprintf("A%d", i), hws[rng.Intn(len(hws))], []int{1, 2, 4, 8, 16}[rng.Intn(5)], e)
		if i == 0 {
			continue
		}
		parent := agents[rng.Intn(i)]
		if rng.Intn(6) == 0 {
			if err := agents[i].SetUpper(wireLikePeer{parent}); err != nil {
				t.Fatal(err)
			}
			if err := parent.AddLower(wireLikePeer{agents[i]}); err != nil {
				t.Fatal(err)
			}
		} else if err := Link(parent, agents[i]); err != nil {
			t.Fatal(err)
		}
	}
	apps := []string{"fft", "sweep3d", "memsort", "jacobi"}
	for _, a := range agents {
		l := a.Local()
		for j := rng.Intn(3); j > 0; j-- {
			_, _ = l.Submit(appOf(t, apps[rng.Intn(len(apps))]), 1e9, 0)
		}
		for j := rng.Intn(4); j > 0; j-- {
			mask := rng.Uint64() & (1<<uint(l.NumNodes()) - 1)
			start := float64(rng.Intn(400))
			// An overlap is refused; the book is what is left. Short TTLs
			// expire while the floods run.
			_ = l.HoldReservation(rng.Uint64(), "pre", mask, start, start+float64(10+rng.Intn(200)), 0,
				[]float64{5, 40, 1e9}[rng.Intn(3)])
		}
	}
	gate := &testGate{down: map[string]bool{}}
	for i := rng.Intn(4); i > 0 && n > 1; i-- {
		gate.down[agents[rng.Intn(n)].Name()] = true
	}
	for _, a := range agents {
		a.SetGate(gate)
	}
	for i := rng.Intn(4); i > 0 && n > 1; i-- {
		a := agents[rng.Intn(n)]
		s := a.slots[rng.Intn(len(a.slots))]
		for j := 0; j < DefaultFailureThreshold; j++ {
			a.RecordPeerFailure(s.name)
		}
	}
	return agents
}

// breakers snapshots every agent's breaker state, slot by slot.
func breakers(agents []*Agent) []string {
	var out []string
	for _, a := range agents {
		for _, s := range a.slots {
			out = append(out, fmt.Sprintf("%s>%s:%d/%t", a.name, s.name, s.consecFails, s.tripped))
		}
	}
	return out
}

// TestBestFloodMatchesFullFlood holds the bounded flood to the
// concatenating one it replaced. Three copies of each random world are
// flooded in step with the same ops: by refFlood, by HandleReserve with
// Best = 0 and by HandleReserve with Best = k. The Best = 0 reply must be
// the reference's list, the Best = k reply its first min(k, n) quotes,
// element for element, and every breaker must end where the reference
// left it.
func TestBestFloodMatchesFullFlood(t *testing.T) {
	trimmed, wired := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		ref, full, best := floodWorld(t, seed), floodWorld(t, seed), floodWorld(t, seed)
		rng := rand.New(rand.NewSource(-seed))
		now := 0.0
		for f := 0; f < 6; f++ {
			now += float64(rng.Intn(20))
			k := 1 + rng.Intn(4)
			origin := rng.Intn(len(ref))
			op := ReserveOp{
				Action: ReserveQuoteOp, Nodes: 1 + rng.Intn(4),
				Earliest: float64(rng.Intn(300)), Duration: float64(10 + rng.Intn(150)),
			}
			want := refFlood(ref[origin], op, now).Quotes
			gotFull, err := full[origin].HandleReserve(op, now)
			if err != nil {
				t.Fatal(err)
			}
			op.Best = k
			gotBest, err := best[origin].HandleReserve(op, now)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("seed %d flood %d from %s (%d agents, k=%d)", seed, f, ref[origin].Name(), len(ref), k)
			if !slices.Equal(gotFull.Quotes, want) {
				t.Fatalf("%s: Best=0 reply\n%+v\nreference\n%+v", where, gotFull.Quotes, want)
			}
			if top := want[:min(k, len(want))]; !slices.Equal(gotBest.Quotes, top) {
				t.Fatalf("%s: Best=%d reply\n%+v\nwant the reference's first %d\n%+v", where, k, gotBest.Quotes, len(top), top)
			}
			if rb, fb, bb := breakers(ref), breakers(full), breakers(best); !slices.Equal(fb, rb) || !slices.Equal(bb, rb) {
				t.Fatalf("%s: breakers differ from the reference's", where)
			}
			if len(want) > k {
				trimmed++
			}
		}
		for _, a := range best {
			for _, s := range a.slots {
				if _, ok := s.peer.(wireLikePeer); ok {
					wired++
				}
			}
		}
	}
	if trimmed < 150 || wired < 50 {
		t.Fatalf("only %d floods had more quotes than k and %d wire-like links: the worlds barely exercise the trim", trimmed, wired)
	}
}

// TestKeepQuoteFirstOfResourceWins covers what a tree never exercises:
// a resource quoted twice keeps the quote that came first, as the
// origin's dedup did, even when the second is earlier.
func TestKeepQuoteFirstOfResourceWins(t *testing.T) {
	q := func(r string, start float64) scheduler.ReserveQuote {
		return scheduler.ReserveQuote{Resource: r, Start: start}
	}
	var got []scheduler.ReserveQuote
	for _, x := range []scheduler.ReserveQuote{q("B", 20), q("A", 30), q("B", 10), q("C", 20), q("D", 5)} {
		got = keepQuote(got, x, 3)
	}
	if want := []scheduler.ReserveQuote{q("D", 5), q("B", 20), q("C", 20)}; !slices.Equal(got, want) {
		t.Fatalf("kept %+v, want %+v", got, want)
	}
}
