package reserve

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/schedule"
)

// refFindWindow is FindWindow as it was before the book kept its
// bookings in a slice, kept as the oracle: a fresh candidate list, and
// per candidate a scan of every booking for every node.
func refFindWindow(bk *Book, k int, earliest, dur float64, avail []float64, now float64) (uint64, float64, bool) {
	if k < 1 || k > bk.numNodes || len(avail) != bk.numNodes {
		return 0, 0, false
	}
	cands := []float64{earliest}
	for _, a := range avail {
		if a > earliest && !math.IsInf(a, 1) {
			cands = append(cands, a)
		}
	}
	for _, b := range bk.list {
		if b.Active(now) && b.End > earliest {
			cands = append(cands, b.End)
		}
	}
	sort.Float64s(cands)
	blocked := func(i int, start, end float64) bool {
		for _, b := range bk.list {
			if b.Mask&(1<<uint(i)) != 0 && b.Active(now) &&
				(schedule.Window{Start: b.Start, End: b.End}).Overlaps(start, end) {
				return true
			}
		}
		return false
	}
	for _, t := range cands {
		var m uint64
		n := 0
		for i := 0; i < bk.numNodes && n < k; i++ {
			if avail[i] > t || blocked(i, t, t+dur) {
				continue
			}
			m |= 1 << uint(i)
			n++
		}
		if n == k {
			return m, t, true
		}
	}
	return 0, 0, false
}

// TestFindWindowMatchesReference quotes random books — held, expired,
// confirmed and released bookings on random node sets, down nodes and
// random node floors — with FindWindow and with the reference, and
// wants the same window every time.
func TestFindWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	found := 0
	for trial := 0; trial < 3000; trial++ {
		nodes := 1 + rng.Intn(16)
		bk := NewBook(nodes)
		for id := uint64(1); id <= uint64(rng.Intn(12)); id++ {
			start := float64(rng.Intn(300))
			mask := rng.Uint64() & (1<<uint(nodes) - 1)
			if bk.Hold(id, "u@g", mask, start, start+float64(rng.Intn(120)), 0, float64(1+rng.Intn(60))) != nil {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				_ = bk.Confirm(id, float64(rng.Intn(40)))
			case 1:
				_ = bk.Release(id, float64(rng.Intn(40)))
			}
		}
		avail := make([]float64, nodes)
		for i := range avail {
			switch rng.Intn(6) {
			case 0:
				avail[i] = math.Inf(1)
			default:
				avail[i] = float64(rng.Intn(250))
			}
		}
		for q := 0; q < 4; q++ {
			k, earliest, dur, now := 1+rng.Intn(nodes), float64(rng.Intn(300)), float64(rng.Intn(150)), float64(rng.Intn(80))
			gm, gs, gok := bk.FindWindow(k, earliest, dur, avail, now)
			wm, ws, wok := refFindWindow(bk, k, earliest, dur, avail, now)
			if gm != wm || gs != ws || gok != wok {
				t.Fatalf("trial %d: FindWindow(%d, %g, %g, %v, %g) = %b@%g %t, reference %b@%g %t",
					trial, k, earliest, dur, avail, now, gm, gs, gok, wm, ws, wok)
			}
			if gok {
				found++
			}
		}
	}
	if found < 3000 {
		t.Fatalf("only %d of 12000 quotes found a window", found)
	}
}
