package agent

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/scheduler"
)

// refShopReservation is the shopper ShopReservation replaced, kept here
// as the reference its decisions are held to: after the first flood it
// re-quotes every candidate resource with its own routed op, every
// round, and only then looks whether the round changed anything.
func refShopReservation(a *Agent, spec ReservationSpec, now float64) (HeldReservation, error) {
	parts := spec.Parts
	if parts < 1 {
		parts = 1
	}
	rep, err := a.HandleReserve(ReserveOp{
		Action: ReserveQuoteOp, Nodes: spec.Nodes, Earliest: spec.Earliest, Duration: spec.Duration,
	}, now)
	if err != nil {
		return HeldReservation{}, err
	}
	if len(rep.Quotes) < parts {
		return HeldReservation{}, fmt.Errorf("ref: %d of %d parts quotable", len(rep.Quotes), parts)
	}
	resources := make([]string, 0, len(rep.Quotes))
	for _, q := range rep.Quotes {
		resources = append(resources, q.Resource)
	}
	chosen := rep.Quotes[:parts]
	T := commonStart(chosen)
	for round := 0; ; round++ {
		if round >= maxCoallocRounds {
			return HeldReservation{}, fmt.Errorf("ref: no convergence in %d rounds", maxCoallocRounds)
		}
		requotes := make([]scheduler.ReserveQuote, 0, len(resources))
		for _, r := range resources {
			qr, err := a.HandleReserve(ReserveOp{
				Action: ReserveQuoteOp, Resource: r, Nodes: spec.Nodes, Earliest: T, Duration: spec.Duration,
			}, now)
			if err != nil || len(qr.Quotes) != 1 {
				continue
			}
			requotes = append(requotes, qr.Quotes[0])
		}
		if len(requotes) < parts {
			return HeldReservation{}, fmt.Errorf("ref: only %d of %d parts still quotable at %g", len(requotes), parts, T)
		}
		sort.Slice(requotes, func(i, j int) bool {
			if requotes[i].Start != requotes[j].Start {
				return requotes[i].Start < requotes[j].Start
			}
			return requotes[i].Resource < requotes[j].Resource
		})
		chosen = requotes[:parts]
		if latest := commonStart(chosen); latest > T {
			T = latest
			continue
		}
		break
	}
	if spec.MaxSlip >= 0 && T > spec.Earliest+spec.MaxSlip {
		return HeldReservation{}, fmt.Errorf("ref: start %g slips past %g+%g", T, spec.Earliest, spec.MaxSlip)
	}
	held := HeldReservation{ID: spec.ResvID, Holder: spec.Holder, Start: T, End: T + spec.Duration}
	for _, q := range chosen {
		_, err := a.HandleReserve(ReserveOp{
			Action: ReserveHoldOp, ResvID: spec.ResvID, Holder: spec.Holder, Resource: q.Resource,
			Mask: q.Mask, Start: T, End: T + spec.Duration, TTL: spec.TTL,
		}, now)
		if err != nil {
			for _, h := range held.Parts {
				_ = a.ReleasePart(h.Resource, spec.ResvID, now)
			}
			return HeldReservation{}, fmt.Errorf("ref: hold on %s: %w", q.Resource, err)
		}
		held.Parts = append(held.Parts, HeldPart{Resource: q.Resource, Mask: q.Mask})
	}
	return held, nil
}

// propWorld builds the seeded random grid both shoppers are run on: a
// random tree of 3–60 agents with mixed node counts, pre-existing holds,
// one gated agent and one tripped breaker. Small
// resources under six holds per agent keep the requests contended.
func propWorld(t *testing.T, seed int64) []*Agent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := pace.NewEngine()
	n := 3 + rng.Intn(58)
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = newAgent(t, fmt.Sprintf("A%d", i), pace.SGIOrigin2000, []int{2, 4, 4, 8}[rng.Intn(4)], e)
		if i > 0 {
			if err := Link(agents[rng.Intn(i)], agents[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := uint64(1000); id < 1000+uint64(6*n); id++ {
		l := agents[rng.Intn(n)].Local()
		mask := rng.Uint64() & (1<<uint(l.NumNodes()) - 1)
		start := float64(rng.Intn(400))
		// An overlap with an earlier hold is refused; the world is what is left.
		_ = l.HoldReservation(id, "pre", mask, start, start+float64(20+rng.Intn(200)), 0, 1e9)
	}
	gate := &testGate{down: map[string]bool{agents[1+rng.Intn(n-1)].Name(): true}}
	for _, a := range agents {
		a.SetGate(gate)
	}
	child := agents[1+rng.Intn(n-1)]
	for i := 0; i < DefaultFailureThreshold; i++ {
		child.RecordPeerFailure(child.Upper().PeerName())
	}
	return agents
}

// books snapshots every resource's active windows.
func books(agents []*Agent) [][][]schedule.Window {
	out := make([][][]schedule.Window, len(agents))
	for i, a := range agents {
		if bk := a.Local().Book(); bk != nil {
			out[i] = bk.Windows(0)
		}
	}
	return out
}

// TestShopMatchesTargetedRequoteReference holds the flood-requote
// shopper to the targeted-requote one it replaced: on the same world and
// the same sequence of requests, both fail or both hold the same window
// on the same parts, and the books end identical. The requests pile up on
// the pre-booked windows, so co-allocations take several rounds.
func TestShopMatchesTargetedRequoteReference(t *testing.T) {
	rounds := 0
	for seed := int64(1); seed <= 60; seed++ {
		got, want := propWorld(t, seed), propWorld(t, seed)
		rng := rand.New(rand.NewSource(-seed))
		for id := uint64(1); id <= 12; id++ {
			spec := ReservationSpec{
				ResvID: id, Holder: "u@g", Nodes: 1 + rng.Intn(4), Parts: 1 + rng.Intn(3),
				Earliest: float64(rng.Intn(300)), Duration: float64(10 + rng.Intn(150)), TTL: 1e9,
				MaxSlip: []float64{-1, 0, 25, 1000}[rng.Intn(4)],
			}
			origin := rng.Intn(len(got))
			// Quoting changes no book: look at the first flood to see
			// whether this request will need a re-quote round. A flood
			// does feed the breakers, so both worlds get the same one.
			probe := ReserveOp{Action: ReserveQuoteOp, Nodes: spec.Nodes, Earliest: spec.Earliest, Duration: spec.Duration}
			first, _ := got[origin].HandleReserve(probe, 0)
			_, _ = want[origin].HandleReserve(probe, 0)
			if q := first.Quotes; len(q) >= spec.Parts && q[0].Start != commonStart(q[:spec.Parts]) {
				rounds++
			}
			g, gerr := got[origin].ShopReservation(spec, 0)
			w, werr := refShopReservation(want[origin], spec, 0)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d resv %d %+v from %s: err %v, reference err %v", seed, id, spec, got[origin].Name(), gerr, werr)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d resv %d %+v from %s: held %+v, reference held %+v", seed, id, spec, got[origin].Name(), g, w)
			}
			if !reflect.DeepEqual(books(got), books(want)) {
				t.Fatalf("seed %d resv %d %+v: books differ from the reference's", seed, id, spec)
			}
		}
	}
	if rounds < 30 {
		t.Fatalf("only %d requests needed a re-quote round: the worlds barely exercise the fixed point", rounds)
	}
}
