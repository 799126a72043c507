package scheduler

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// maskEnd is the completion of a dur-second run on the nodes of mask:
// started at floor or once the last of them is free, pushed past any
// booked window it would overlap.
func maskEnd(busy []float64, booked [][]schedule.Window, floor float64, mask uint64, dur float64) float64 {
	start := floor
	for m := mask; m != 0; m &= m - 1 {
		if a := busy[bits.TrailingZeros64(m)]; a > start {
			start = a
		}
	}
	return schedule.AdjustStart(booked, mask, start, dur) + dur
}

// refExhaustive is §4.1's allocation search written out literally: every
// one of the 2^n − 1 node subsets is timed, and the earliest completion
// wins, ties broken towards fewer nodes and then the smaller mask value.
// It is the oracle FIFOPolicy's exhaustive search is held to.
func refExhaustive(busy []float64, booked [][]schedule.Window, floor float64, app *pace.AppModel, predict schedule.Predictor) uint64 {
	n := len(busy)
	dur := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		dur[k] = predict(app, k)
	}
	best := uint64(0)
	bestEnd := math.Inf(1)
	bestCount := n + 1
	for m := uint64(1); m < uint64(1)<<uint(n); m++ {
		k := bits.OnesCount64(m)
		end := maskEnd(busy, booked, floor, m, dur[k])
		if end < bestEnd || (end == bestEnd && (k < bestCount || (k == bestCount && m < best))) {
			best, bestEnd, bestCount = m, end, k
		}
	}
	return best
}

// tablePredictor predicts dur[k] for k nodes whatever the application: a
// duration curve free to be non-monotone and to tie across node counts.
func tablePredictor(dur []float64) schedule.Predictor {
	return func(_ *pace.AppModel, k int) float64 { return dur[k] }
}

// randomSearchCase draws an allocation problem over n nodes: heavily tied
// small availabilities (now and then a node that never frees up), a floor
// that is sometimes above every availability, and either a case-study
// application or a random, non-monotone duration curve.
func randomSearchCase(rng *sim.RNG, n int, lib *pace.Library, pred schedule.Predictor) ([]float64, float64, *pace.AppModel, schedule.Predictor) {
	busy := make([]float64, n)
	hi := 0.0
	for i := range busy {
		switch {
		case rng.Bool(0.02):
			busy[i] = math.Inf(1)
		case rng.Bool(0.2):
			busy[i] = rng.UniformIn(0, 6)
		default:
			busy[i] = float64(rng.Intn(6))
		}
		if busy[i] > hi && !math.IsInf(busy[i], 1) {
			hi = busy[i]
		}
	}
	floor := float64(rng.Intn(8))
	if rng.Bool(0.2) {
		floor = hi + float64(1+rng.Intn(3))
	}
	names := lib.Names()
	app, _ := lib.Lookup(names[rng.Intn(len(names))])
	if rng.Bool(0.5) {
		return busy, floor, app, pred
	}
	dur := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		dur[k] = float64(1 + rng.Intn(12))
	}
	return busy, floor, app, tablePredictor(dur)
}

// TestFIFOExhaustiveMatchesReference holds the unbooked exhaustive search
// (n threshold candidates) to the literal enumeration, node set and all.
func TestFIFOExhaustiveMatchesReference(t *testing.T) {
	lib := testLib(t)
	pred := enginePredictor(pace.NewEngine(), pace.SunUltra5)
	rng := sim.NewRNG(31)
	f := NewFIFOPolicy() // one policy throughout: its scratch must not leak between sizes
	for c := 0; c < 10000; c++ {
		n := 1 + c%16
		busy, floor, app, p := randomSearchCase(rng, n, lib, pred)
		got := f.bestAllocationExhaustive(busy, nil, floor, app, p)
		if want := refExhaustive(busy, nil, floor, app, p); got != want {
			t.Fatalf("case %d: busy %v floor %v: mask %b, reference %b", c, busy, floor, got, want)
		}
	}
	if len(f.maxAvail) != 0 {
		t.Fatalf("unbooked searches grew a %d-entry table", len(f.maxAvail))
	}
}

// randomBooked draws, per node, up to two sorted non-overlapping windows
// inside the first 30 s.
func randomBooked(rng *sim.RNG, n int) [][]schedule.Window {
	booked := make([][]schedule.Window, n)
	for i := range booked {
		at := 0.0
		for w := rng.Intn(3); w > 0; w-- {
			start := at + float64(rng.Intn(10))
			at = start + float64(1+rng.Intn(8))
			booked[i] = append(booked[i], schedule.Window{Start: start, End: at})
		}
	}
	return booked
}

// TestFIFOBookedSearchMatchesReference holds the booked-window search to
// the literal enumeration: windows make completion non-monotone in the
// node set, which is why that path still tabulates every subset.
func TestFIFOBookedSearchMatchesReference(t *testing.T) {
	lib := testLib(t)
	pred := enginePredictor(pace.NewEngine(), pace.SunUltra5)
	rng := sim.NewRNG(32)
	f := NewFIFOPolicy()
	for c := 0; c < 2000; c++ {
		n := 1 + c%10
		busy, floor, app, p := randomSearchCase(rng, n, lib, pred)
		for i := range busy {
			if math.IsInf(busy[i], 1) {
				busy[i] = 40 // AdjustStart needs finite starts
			}
		}
		booked := randomBooked(rng, n)
		got := f.bestAllocationExhaustive(busy, booked, floor, app, p)
		if want := refExhaustive(busy, booked, floor, app, p); got != want {
			t.Fatalf("case %d: busy %v floor %v booked %v: mask %b, reference %b", c, busy, floor, booked, got, want)
		}
	}
}

// TestFIFOPlanMatchesReferenceAcrossEvents replays a queue through
// several scheduling events under shifting node availability, and checks
// every Plan against one rebuilt by hand: kept allocations stay, and every
// task allocated afresh gets the reference search's node set.
func TestFIFOPlanMatchesReferenceAcrossEvents(t *testing.T) {
	lib := testLib(t)
	names := lib.Names()
	pred := enginePredictor(pace.NewEngine(), pace.SGIOrigin2000)
	rng := sim.NewRNG(33)
	const nodes = 12
	f := NewFIFOPolicy()
	var tasks []schedule.Task
	var want schedule.Schedule
	now := 0.0
	for event := 0; event < 60; event++ {
		now += float64(rng.Intn(15))
		app, _ := lib.Lookup(names[rng.Intn(len(names))])
		tasks = append(tasks, schedule.Task{ID: event + 1, App: app, Arrival: now, Deadline: 1e9})
		if len(tasks) > 6 {
			f.Forget(tasks[0].ID)
			tasks = tasks[1:]
		}
		avail := make([]float64, nodes)
		for i := range avail {
			avail[i] = now + float64(rng.Intn(4)*10)
		}
		res := schedule.Resource{NumNodes: nodes, Avail: avail}

		fixed := make(map[int]uint64, len(f.fixed))
		for id, m := range f.fixed {
			fixed[id] = m
		}
		got := f.Plan(tasks, res, now, pred)

		want.Reset(res, now)
		for i, task := range tasks {
			floor := math.Max(now, task.Arrival)
			if i > 0 {
				floor = math.Max(floor, want.Items[i-1].Start)
			}
			mask, planned := fixed[task.ID]
			if !planned {
				mask = refExhaustive(want.NodeBusy, nil, floor, task.App, pred)
			}
			want.Place(i, mask, floor, pred(task.App, bits.OnesCount64(mask)))
		}
		for i := range want.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("event %d: item %d is %+v, reference %+v", event, i, got.Items[i], want.Items[i])
			}
		}
	}
}

// TestFIFOSixtyFourNodes: the widest resource schedule.MaxNodes allows
// plans every task onto at least one node, with and without a held
// reservation (whose search above maxBookedSearchNodes is fifo-fast's),
// and never inside the window.
func TestFIFOSixtyFourNodes(t *testing.T) {
	apps := []string{"sweep3d", "fft", "improc", "cpi", "closure"}
	for _, held := range []bool{false, true} {
		l := newTestLocal(t, "S64", NewFIFOPolicy(), schedule.MaxNodes)
		const wMask, wStart, wEnd = 0xffff_0000_0000_ffff, 20, 80
		if held {
			if err := l.HoldReservation(7, "tester", wMask, wStart, wEnd, 0, 1e6); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			if _, err := l.Submit(appOf(t, apps[i%len(apps)]), 1e6, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ps := placements(l)
		if len(ps) != 12 {
			t.Fatalf("held=%v: %d placements, want 12", held, len(ps))
		}
		for _, r := range ps {
			if r.Mask == 0 {
				t.Fatalf("held=%v: task %d placed on no node", held, r.TaskID)
			}
		}
		if held {
			assertNoOverlap(t, l, wMask, wStart, wEnd)
		}
	}

	// Above the bound, a booked exhaustive search is the fast one.
	rng := sim.NewRNG(34)
	pred := enginePredictor(pace.NewEngine(), pace.SGIOrigin2000)
	for c := 0; c < 50; c++ {
		n := maxBookedSearchNodes + 1 + rng.Intn(schedule.MaxNodes-maxBookedSearchNodes)
		busy, floor, app, p := randomSearchCase(rng, n, testLib(t), pred)
		for i := range busy {
			if math.IsInf(busy[i], 1) {
				busy[i] = 40
			}
		}
		booked := randomBooked(rng, n)
		got := NewFIFOPolicy().bestAllocationExhaustive(busy, booked, floor, app, p)
		if want := NewFastFIFOPolicy().bestAllocationCandidates(busy, booked, floor, app, p, false); got != want {
			t.Fatalf("case %d, %d nodes: mask %b, fast search %b", c, n, got, want)
		}
	}
}

// FuzzExhaustiveSearch holds the exhaustive search to the literal
// enumeration on fuzzed availabilities, floor, node count (at most 12),
// duration curve and an optional booked window.
func FuzzExhaustiveSearch(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(2), []byte{5, 3, 7, 2}, uint16(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(9), []byte{4, 4, 2, 2}, uint16(0b0011), uint8(1), uint8(5))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), []byte{9}, uint16(0xfff), uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, avail []byte, floorRaw uint8, durRaw []byte, wMask uint16, wStart, wLen uint8) {
		n := len(avail)
		if n == 0 || n > 12 || len(durRaw) == 0 {
			t.Skip()
		}
		busy := make([]float64, n)
		for i, a := range avail {
			busy[i] = float64(a) / 4
		}
		dur := make([]float64, n+1)
		for k := 1; k <= n; k++ {
			dur[k] = 1 + float64(durRaw[(k-1)%len(durRaw)])/8
		}
		var booked [][]schedule.Window
		if wMask&(1<<uint(n)-1) != 0 && wLen != 0 {
			booked = make([][]schedule.Window, n)
			w := schedule.Window{Start: float64(wStart) / 4, End: float64(wStart)/4 + float64(wLen)/4}
			for m := uint64(wMask) & (1<<uint(n) - 1); m != 0; m &= m - 1 {
				booked[bits.TrailingZeros64(m)] = []schedule.Window{w}
			}
		}
		floor := float64(floorRaw) / 4
		p := tablePredictor(dur)
		got := NewFIFOPolicy().bestAllocationExhaustive(busy, booked, floor, nil, p)
		if want := refExhaustive(busy, booked, floor, nil, p); got != want {
			t.Fatalf("busy %v floor %v dur %v booked %v: mask %b, reference %b", busy, floor, dur, booked, got, want)
		}
	})
}
