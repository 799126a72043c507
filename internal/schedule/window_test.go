package schedule

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWindowOverlaps(t *testing.T) {
	w := Window{Start: 10, End: 20}
	cases := []struct {
		lo, hi float64
		want   bool
	}{
		{0, 10, false},  // touches the start: half-open, no overlap
		{20, 30, false}, // starts at the end: half-open, no overlap
		{0, 11, true},
		{19, 30, true},
		{12, 15, true},  // inside
		{0, 100, true},  // covers
		{15, 15, false}, // empty interval intersects nothing
	}
	for _, c := range cases {
		if got := w.Overlaps(c.lo, c.hi); got != c.want {
			t.Errorf("[10,20).Overlaps(%g, %g) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	zero := Window{Start: 15, End: 15}
	if zero.Overlaps(0, 100) {
		t.Error("a zero-width window overlapped something")
	}
}

func TestAdjustStartZeroWidthWindow(t *testing.T) {
	// "A zero-width window (Start == End) reserves nothing and conflicts
	// with nothing": it must never move a start, even one landing on it.
	booked := [][]Window{{{Start: 5, End: 5}}}
	for _, start := range []float64{0, 4, 5, 6} {
		if got := AdjustStart(booked, 1, start, 10); got != start {
			t.Errorf("zero-width window moved start %g -> %g", start, got)
		}
	}
}

func TestAdjustStartWindowAtStart(t *testing.T) {
	// A window opening exactly at the candidate start is the hot case for a
	// reservation granted at `now`: the task must land at the window's end.
	booked := [][]Window{{{Start: 0, End: 30}}}
	if got := AdjustStart(booked, 1, 0, 10); got != 30 {
		t.Fatalf("start pushed to %g, want 30", got)
	}
	// An unbooked node is unaffected.
	booked = append(booked, nil)
	if got := AdjustStart(booked, 0b10, 0, 10); got != 0 {
		t.Fatalf("unbooked node moved start to %g", got)
	}
}

func TestAdjustStartFixedPointAcrossNodes(t *testing.T) {
	// Clearing the window on node 0 lands the interval inside the window on
	// node 1; clearing that lands it in node 0's second window. The push
	// must chase the fixed point across nodes, not stop after one scan.
	booked := [][]Window{
		{{Start: 0, End: 10}, {Start: 22, End: 40}},
		{{Start: 10, End: 20}},
	}
	if got := AdjustStart(booked, 0b11, 0, 5); got != 40 {
		t.Fatalf("fixed point = %g, want 40", got)
	}
	// A single node only clears its own windows.
	if got := AdjustStart(booked, 0b01, 0, 5); got != 10 {
		t.Fatalf("node-0-only push = %g, want 10", got)
	}
}

func TestAdjustStartBackToBackWindows(t *testing.T) {
	// Adjacent windows with no usable gap: the start must clear them all.
	booked := [][]Window{{{Start: 0, End: 10}, {Start: 10, End: 20}, {Start: 20, End: 30}}}
	if got := AdjustStart(booked, 1, 0, 1); got != 30 {
		t.Fatalf("start = %g, want 30", got)
	}
	// A gap exactly the duration wide is usable (half-open windows).
	booked = [][]Window{{{Start: 0, End: 10}, {Start: 15, End: 20}}}
	if got := AdjustStart(booked, 1, 0, 5); got != 10 {
		t.Fatalf("start = %g, want the exact-fit gap at 10", got)
	}
}

func TestBuildZeroWidthWindowsChangeNothing(t *testing.T) {
	// A Booked structure made purely of zero-width windows must yield the
	// schedule of an unbooked resource, placement for placement.
	rng := sim.NewRNG(11)
	tasks := makeTasks(6, 1e9)
	plain := NewResource(4)
	booked := NewResource(4)
	booked.Booked = [][]Window{
		{{Start: 3, End: 3}}, {{Start: 0, End: 0}}, nil, {{Start: 7, End: 7}},
	}
	for round := 0; round < 20; round++ {
		sol := NewRandomSolution(len(tasks), 4, rng)
		a := build(sol, tasks, plain, 0, scalePredictor(20))
		b := build(sol, tasks, booked, 0, scalePredictor(20))
		if !reflect.DeepEqual(a.Items, b.Items) {
			t.Fatalf("round %d: zero-width windows changed the schedule:\n%+v\n%+v", round, a.Items, b.Items)
		}
	}
}

func TestBuildAroundWindowAtBase(t *testing.T) {
	// Every node booked [0, 50) at base 0: the whole schedule starts at 50.
	tasks := makeTasks(3, 1e9)
	res := NewResource(2)
	res.Booked = [][]Window{
		{{Start: 0, End: 50}},
		{{Start: 0, End: 50}},
	}
	sol := Solution{Order: []int{0, 1, 2}, Maps: []uint64{0b01, 0b10, 0b11}}
	s := build(sol, tasks, res, 0, constPredictor(10))
	for _, it := range s.Items {
		if it.Start < 50 {
			t.Fatalf("task placed at %g inside the booked [0,50): %+v", it.Start, it)
		}
	}
}

func TestBuildFullyBookedHorizonPushesPastIt(t *testing.T) {
	// A resource booked solid for a long horizon still yields a valid
	// schedule: everything lands at the horizon's end, nothing inside it.
	tasks := makeTasks(4, 1e9)
	res := NewResource(3)
	res.Booked = make([][]Window, 3)
	for i := range res.Booked {
		res.Booked[i] = []Window{{Start: 0, End: 1000}}
	}
	sol := NewRandomSolution(len(tasks), 3, sim.NewRNG(7))
	s := build(sol, tasks, res, 0, constPredictor(5))
	if len(s.Items) != len(tasks) {
		t.Fatalf("%d placements for %d tasks", len(s.Items), len(tasks))
	}
	for _, it := range s.Items {
		if it.Start < 1000 {
			t.Fatalf("task started at %g inside the full booking: %+v", it.Start, it)
		}
	}
}

// TestBuildNeverOverlapsBookedWindows is the blocked-window property: for
// random booked windows and random legitimate solutions, no placement may
// intersect a booked window on any node it occupies.
func TestBuildNeverOverlapsBookedWindows(t *testing.T) {
	rng := sim.NewRNG(23)
	prop := func(nTasksRaw, nNodesRaw uint8, seedRaw uint16) bool {
		nTasks := int(nTasksRaw)%8 + 1
		nNodes := int(nNodesRaw)%6 + 1
		tasks := makeTasks(nTasks, 1e9)
		res := NewResource(nNodes)
		res.Booked = make([][]Window, nNodes)
		for i := range res.Booked {
			// 0–2 windows per node, sorted and non-overlapping by
			// construction (cursor only moves forward).
			cursor := float64(rng.Intn(30))
			for w := rng.Intn(3); w > 0; w-- {
				width := float64(rng.Intn(25)) // zero-width allowed
				res.Booked[i] = append(res.Booked[i], Window{Start: cursor, End: cursor + width})
				cursor += width + float64(rng.Intn(10)+1)
			}
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("generated an invalid resource: %v", err)
		}
		sol := NewRandomSolution(nTasks, nNodes, rng)
		s := build(sol, tasks, res, float64(seedRaw%50), scalePredictor(40))
		for _, it := range s.Items {
			for m := it.Mask; m != 0; m &= m - 1 {
				node := bits.TrailingZeros64(m)
				for _, w := range res.Booked[node] {
					if w.Overlaps(it.Start, it.End) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderMatchesBuildWithBooked extends the zero-alloc builder's
// equivalence contract to booked resources: the scratch path must apply
// the same window pushes as the reference one-shot build.
func TestBuilderMatchesBuildWithBooked(t *testing.T) {
	rng := sim.NewRNG(31)
	tasks := makeTasks(8, 1e9)
	res := NewResource(4)
	res.Booked = [][]Window{
		{{Start: 5, End: 25}},
		{{Start: 0, End: 10}, {Start: 40, End: 60}},
		nil,
		{{Start: 12, End: 12}}, // zero-width
	}
	pred := scalePredictor(30)
	b, err := NewBuilder(tasks, res, pred)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		sol := NewRandomSolution(len(tasks), 4, rng)
		want := refBuild(sol, tasks, res, 1, pred)
		got := b.Build(sol, 1)
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("round %d: builder diverged from the reference build around booked windows:\n%+v\n%+v",
				round, got.Items, want.Items)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("round %d: makespan %g, want %g", round, got.Makespan, want.Makespan)
		}
	}
}

// TestBuildSequentialRespectsBooked covers the sequential builder variant
// used by policies that forbid out-of-order placement.
func TestBuildSequentialRespectsBooked(t *testing.T) {
	tasks := makeTasks(2, 1e9)
	res := NewResource(2)
	res.Booked = [][]Window{{{Start: 0, End: 20}}, {{Start: 0, End: 20}}}
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{0b01, 0b10}}
	s := BuildSequential(sol, tasks, res, 0, constPredictor(5))
	for _, it := range s.Items {
		if it.Start < 20 {
			t.Fatalf("sequential build placed a task at %g inside [0,20)", it.Start)
		}
	}
}
