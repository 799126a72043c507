package scheduler

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/pace"
	"repro/internal/schedule"
)

func testLib(t testing.TB) *pace.Library {
	t.Helper()
	return pace.CaseStudyLibrary()
}

func appOf(t testing.TB, name string) *pace.AppModel {
	t.Helper()
	m, ok := pace.CaseStudyLibrary().Lookup(name)
	if !ok {
		t.Fatalf("no model %q", name)
	}
	return m
}

// enginePredictor builds a schedule.Predictor over the reference platform.
func enginePredictor(e *pace.Engine, hw pace.Hardware) schedule.Predictor {
	return func(app *pace.AppModel, k int) float64 { return e.MustPredict(app, hw, k) }
}

func TestFIFONeverReorders(t *testing.T) {
	f := NewFIFOPolicy()
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{
		{ID: 1, App: appOf(t, "sweep3d"), Arrival: 0, Deadline: 1e9},
		{ID: 2, App: appOf(t, "fft"), Arrival: 1, Deadline: 1e9},
		{ID: 3, App: appOf(t, "cpi"), Arrival: 2, Deadline: 1e9},
	}
	s := f.Plan(tasks, schedule.NewResource(4), 2, pred)
	for i, it := range s.Items {
		if it.TaskPos != i {
			t.Fatalf("FIFO reordered tasks: items %+v", s.Items)
		}
	}
}

func TestFIFOAllocationIsFixedAcrossPlans(t *testing.T) {
	f := NewFIFOPolicy()
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{{ID: 1, App: appOf(t, "improc"), Deadline: 1e9}}
	s1 := f.Plan(tasks, schedule.NewResource(8), 0, pred)
	mask1 := s1.Items[0].Mask

	// New task arrives; the first task's allocation must not move even
	// though the pool state it was optimised against has changed.
	tasks = append(tasks, schedule.Task{ID: 2, App: appOf(t, "fft"), Arrival: 1, Deadline: 1e9})
	s2 := f.Plan(tasks, schedule.NewResource(8), 1, pred)
	if s2.Items[0].Mask != mask1 {
		t.Fatalf("FIFO allocation drifted: %b -> %b", mask1, s2.Items[0].Mask)
	}
}

func TestFIFOPicksOptimalNodeCount(t *testing.T) {
	// improc is fastest at 8 processors (20s); on an idle 16-node pool the
	// baseline must allocate exactly 8 nodes.
	f := NewFIFOPolicy()
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{{ID: 1, App: appOf(t, "improc"), Deadline: 1e9}}
	s := f.Plan(tasks, schedule.NewResource(16), 0, pred)
	if k := bits.OnesCount64(s.Items[0].Mask); k != 8 {
		t.Fatalf("FIFO allocated %d nodes to improc, want 8 (Table 1 optimum)", k)
	}
	if s.Items[0].End != 20 {
		t.Fatalf("improc completion %v, want 20", s.Items[0].End)
	}
}

func TestFIFOExhaustiveMatchesFastPath(t *testing.T) {
	// Property (§4.1 search equivalence): on a homogeneous resource the
	// exhaustive search and the sorted-prefix search find allocations
	// with identical completion time and node count.
	lib := testLib(t)
	names := lib.Names()
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SunUltra5)
	prop := func(appIdx, nRaw uint8, busyRaw [12]uint8, floorRaw uint8) bool {
		app, _ := lib.Lookup(names[int(appIdx)%len(names)])
		busy := make([]float64, 1+int(nRaw)%len(busyRaw))
		for i := range busy {
			busy[i] = float64(busyRaw[i] % 50)
		}
		floor := float64(floorRaw % 60)
		em := NewFIFOPolicy().bestAllocationExhaustive(busy, nil, floor, app, pred)
		fm := NewFastFIFOPolicy().bestAllocationCandidates(busy, nil, floor, app, pred, false)
		return maskEnd(busy, nil, floor, em, pred(app, bits.OnesCount64(em))) ==
			maskEnd(busy, nil, floor, fm, pred(app, bits.OnesCount64(fm))) &&
			bits.OnesCount64(em) == bits.OnesCount64(fm)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOForgetReleasesAllocation(t *testing.T) {
	f := NewFIFOPolicy()
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{{ID: 1, App: appOf(t, "fft"), Deadline: 1e9}}
	_ = f.Plan(tasks, schedule.NewResource(4), 0, pred)
	f.Forget(1)
	// Re-plan with a busier pool: without the fixed entry the task is
	// re-optimised against the new availability.
	res := schedule.Resource{NumNodes: 4, Avail: []float64{100, 100, 100, 0}}
	s2 := f.Plan(tasks, res, 0, pred)
	// fft on the one free node completes at 25; had a stale multi-node
	// allocation survived it would wait for the busy nodes (>= 100).
	if s2.Items[0].End >= 100 {
		t.Fatalf("Forget did not release the fixed allocation: end %v", s2.Items[0].End)
	}
}

func TestFIFOPlanEmptyQueue(t *testing.T) {
	f := NewFIFOPolicy()
	e := pace.NewEngine()
	s := f.Plan(nil, schedule.NewResource(4), 10, enginePredictor(e, pace.SGIOrigin2000))
	if len(s.Items) != 0 {
		t.Fatalf("empty plan has %d items", len(s.Items))
	}
}

func TestFIFOName(t *testing.T) {
	if NewFIFOPolicy().Name() != "fifo" {
		t.Fatal("wrong policy name")
	}
	if !NewFIFOPolicy().Exhaustive {
		t.Fatal("default FIFO is not the paper's exhaustive search")
	}
	if NewFastFIFOPolicy().Exhaustive {
		t.Fatal("fast FIFO claims to be exhaustive")
	}
}

func TestBestAllocationDeterministic(t *testing.T) {
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	app := appOf(t, "closure")
	busy := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	f := NewFIFOPolicy()
	a := f.bestAllocationExhaustive(busy, nil, 0, app, pred)
	b := f.bestAllocationExhaustive(busy, nil, 0, app, pred)
	if a != b {
		t.Fatalf("exhaustive search nondeterministic: %b vs %b", a, b)
	}
}
