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
// own, and sync.Pool (the cost builders) drops items at random there.

// TestGAPolicyPlanAllocs: a GA scheduling event in steady state — the
// policy's arenas, seeds, carry maps and builders grown — allocates at
// most twice (it allocated ~730 objects when every generation was
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
	if allocs > 2 {
		t.Fatalf("GAPolicy.Plan allocates %v objects per steady-state call, want at most 2", allocs)
	}
}

// TestExhaustiveSearchAllocs: the exhaustive FIFO search keeps its 2^n
// table, so only its first call at a node count allocates.
func TestExhaustiveSearchAllocs(t *testing.T) {
	f := NewFIFOPolicy()
	pred := enginePredictor(pace.NewEngine(), pace.SGIOrigin2000)
	app := appOf(t, "sweep3d")
	busy := make([]float64, 16)
	for i := range busy {
		busy[i] = float64(i % 5)
	}
	f.bestAllocationExhaustive(busy, nil, 0, app, pred)
	allocs := testing.AllocsPerRun(20, func() {
		if f.bestAllocationExhaustive(busy, nil, 0, app, pred) == 0 {
			t.Fatal("no allocation chosen")
		}
	})
	if allocs != 0 {
		t.Fatalf("exhaustive search allocates %v objects per call after the first, want 0", allocs)
	}
}
