//go:build !race

package scheduler

import (
	"testing"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// These guards are not built under -race: its runtime allocates on its
// own.

// TestGAPolicyPlanAllocs: a GA scheduling event in steady state — the
// policy's arenas, seeds, carry maps, duration table and builders grown —
// allocates nothing (it allocated ~730 objects when every generation was
// cloned).
func TestGAPolicyPlanAllocs(t *testing.T) {
	g := NewGAPolicy(ga.DefaultConfig(), sim.NewRNG(1))
	pred := enginePredictor(pace.NewEngine(), pace.SGIOrigin2000)
	names := pace.CaseStudyLibrary().Names()
	tasks := make([]schedule.Task, 4)
	for i := range tasks {
		tasks[i] = schedule.Task{ID: i + 1, App: appOf(t, names[i]), Deadline: 200}
	}
	res := schedule.NewResource(16)
	for i := 0; i < 3; i++ {
		g.Plan(tasks, res, 0, pred)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if s := g.Plan(tasks, res, 0, pred); len(s.Items) != len(tasks) {
			t.Fatal("plan lost a task")
		}
	})
	t.Logf("%v allocations per plan", allocs)
	if allocs != 0 {
		t.Fatalf("GAPolicy.Plan allocates %v objects per steady-state call, want 0", allocs)
	}
}

// TestExhaustiveSearchAllocs: the exhaustive FIFO search reuses its
// scratch, so only its first call at a node count allocates. Unbooked it
// computes the answer from n candidates and keeps no 2^n table; under a
// booked window it keeps the table it enumerates with.
func TestExhaustiveSearchAllocs(t *testing.T) {
	f := NewFIFOPolicy()
	pred := enginePredictor(pace.NewEngine(), pace.SGIOrigin2000)
	app := appOf(t, "sweep3d")
	busy := make([]float64, 16)
	for i := range busy {
		busy[i] = float64(i % 5)
	}
	booked := make([][]schedule.Window, len(busy))
	booked[3] = []schedule.Window{{Start: 2, End: 9}}
	for _, b := range [][][]schedule.Window{nil, booked} {
		f.bestAllocationExhaustive(busy, b, 0, app, pred)
		allocs := testing.AllocsPerRun(20, func() {
			if f.bestAllocationExhaustive(busy, b, 0, app, pred) == 0 {
				t.Fatal("no allocation chosen")
			}
		})
		if allocs != 0 {
			t.Fatalf("exhaustive search (booked %v) allocates %v objects per call after the first, want 0", b != nil, allocs)
		}
		if b == nil && len(f.maxAvail) != 0 {
			t.Fatalf("unbooked search keeps a %d-entry table, want none", len(f.maxAvail))
		}
	}
}
