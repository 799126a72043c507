package scheduler

import (
	"testing"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestGAPolicyPlansAllTasks(t *testing.T) {
	g := newGAForTest(1)
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SunUltra10)
	tasks := []schedule.Task{
		{ID: 1, App: appOf(t, "sweep3d"), Deadline: 1e9},
		{ID: 2, App: appOf(t, "fft"), Deadline: 1e9},
		{ID: 3, App: appOf(t, "improc"), Deadline: 1e9},
	}
	s := g.Plan(tasks, schedule.NewResource(8), 0, pred)
	if len(s.Items) != 3 {
		t.Fatalf("plan has %d items, want 3", len(s.Items))
	}
	seen := map[int]bool{}
	for _, it := range s.Items {
		seen[it.TaskPos] = true
	}
	if len(seen) != 3 {
		t.Fatalf("plan omitted tasks: %+v", s.Items)
	}
}

func TestGAPolicyEmptyQueue(t *testing.T) {
	g := newGAForTest(2)
	e := pace.NewEngine()
	s := g.Plan(nil, schedule.NewResource(4), 5, enginePredictor(e, pace.SGIOrigin2000))
	if len(s.Items) != 0 {
		t.Fatalf("empty plan has items: %+v", s.Items)
	}
	if g.Stats().Plans != 0 {
		t.Fatal("empty plan counted as a GA run")
	}
}

func TestGAPolicyStatsAccumulate(t *testing.T) {
	g := newGAForTest(3)
	reg := telemetry.NewRegistry()
	g.RegisterMetrics(reg, "r")
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{{ID: 1, App: appOf(t, "fft"), Deadline: 1e9}}
	_ = g.Plan(tasks, schedule.NewResource(4), 0, pred)
	s1 := g.Stats()
	if s1.Plans != 1 || s1.Generations == 0 || s1.CostEvals == 0 ||
		s1.Evaluations == 0 || s1.Evaluations >= s1.CostEvals {
		t.Fatalf("stats after one plan: %+v", s1)
	}
	_ = g.Plan(tasks, schedule.NewResource(4), 0, pred)
	s2 := g.Stats()
	if s2.Plans != 2 || s2.CostEvals <= s1.CostEvals || s2.Evaluations <= s1.Evaluations {
		t.Fatalf("stats did not accumulate: %+v -> %+v", s1, s2)
	}
	for name, want := range map[string]int{"ga_cost_evals_total": s2.CostEvals, "ga_evaluations_total": s2.Evaluations} {
		if got := reg.Counter(telemetry.Label(name, "resource", "r")).Value(); got != uint64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestGAPolicyCarrySeedSurvivesChurn(t *testing.T) {
	g := newGAForTest(4)
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{
		{ID: 10, App: appOf(t, "jacobi"), Deadline: 1e9},
		{ID: 11, App: appOf(t, "cpi"), Deadline: 1e9},
	}
	_ = g.Plan(tasks, schedule.NewResource(4), 0, pred)

	// Task 10 leaves, tasks 12 and 13 arrive.
	g.Forget(10)
	tasks = []schedule.Task{
		{ID: 11, App: appOf(t, "cpi"), Deadline: 1e9},
		{ID: 12, App: appOf(t, "fft"), Arrival: 1, Deadline: 1e9},
		{ID: 13, App: appOf(t, "memsort"), Arrival: 2, Deadline: 1e9},
	}
	seed, ok := g.carry.seed(tasks, 4)
	if !ok {
		t.Fatal("no carry seed after churn")
	}
	if err := seed.Validate(3, 4); err != nil {
		t.Fatalf("carry seed invalid: %v", err)
	}
	// Planning again must still cover all tasks.
	s := g.Plan(tasks, schedule.NewResource(4), 1, pred)
	if len(s.Items) != 3 {
		t.Fatalf("plan after churn has %d items", len(s.Items))
	}
}

func TestGAPolicyCarrySeedShrunkPool(t *testing.T) {
	g := newGAForTest(5)
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	tasks := []schedule.Task{{ID: 1, App: appOf(t, "fft"), Deadline: 1e9}}
	_ = g.Plan(tasks, schedule.NewResource(8), 0, pred)
	// The node pool shrinks (failures): previous masks must be clipped.
	seed, ok := g.carry.seed(tasks, 2)
	if !ok {
		t.Skip("previous mask entirely outside the shrunk pool; acceptable")
	}
	if err := seed.Validate(1, 2); err != nil {
		t.Fatalf("carry seed invalid on shrunk pool: %v", err)
	}
}

func TestGAPolicyNoCarryBeforeFirstPlan(t *testing.T) {
	g := newGAForTest(6)
	if _, ok := g.carry.seed([]schedule.Task{{ID: 1}}, 4); ok {
		t.Fatal("carry seed produced before any plan")
	}
}

func TestGAPolicyImprovesOverGreedyOnContention(t *testing.T) {
	// Several improc tasks (optimal at 8 nodes) on a 16-node pool: greedy
	// gives each task its solo-optimal 8+ nodes serially, while the
	// GA can run tasks side by side. The GA plan's cost must be no worse
	// than the greedy seed's.
	gaCfg := ga.DefaultConfig()
	gaCfg.MaxGenerations = 60
	g := NewGAPolicy(gaCfg, sim.NewRNG(7))
	e := pace.NewEngine()
	pred := enginePredictor(e, pace.SGIOrigin2000)
	var tasks []schedule.Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, schedule.Task{ID: i + 1, App: appOf(t, "improc"), Deadline: 70})
	}
	res := schedule.NewResource(16)
	p := &schedule.Problem{Tasks: tasks, Res: res, Base: 0, Predict: pred,
		Weights: g.Weights, FrontWeighted: true}
	var greedy schedule.Solution
	p.GreedySeed(&greedy)
	greedyCost := p.Cost(greedy)

	s := g.Plan(tasks, res, 0, pred)
	plan := schedule.Solution{Maps: make([]uint64, len(tasks))}
	for _, it := range s.Items {
		plan.Order = append(plan.Order, it.TaskPos)
		plan.Maps[it.TaskPos] = it.Mask
	}
	got := p.Cost(plan)
	if got > greedyCost+1e-9 {
		t.Fatalf("GA cost %v worse than greedy seed %v", got, greedyCost)
	}
}

func TestGAPolicyName(t *testing.T) {
	if newGAForTest(8).Name() != "ga" {
		t.Fatal("wrong policy name")
	}
}

func TestCarryStateSharedSemantics(t *testing.T) {
	c := newCarryState()
	if _, ok := c.seed([]schedule.Task{{ID: 1}}, 4); ok {
		t.Fatal("fresh carry produced a seed")
	}
	tasks := []schedule.Task{{ID: 1}, {ID: 2}}
	c.remember(tasks, schedule.Solution{Order: []int{1, 0}, Maps: []uint64{0b01, 0b10}})
	seed, ok := c.seed(tasks, 2)
	if !ok {
		t.Fatal("no seed after remember")
	}
	if seed.Order[0] != 1 || seed.Order[1] != 0 {
		t.Fatalf("carry lost order: %v", seed.Order)
	}
	if seed.Maps[0] != 0b01 || seed.Maps[1] != 0b10 {
		t.Fatalf("carry lost maps: %v", seed.Maps)
	}
	c.forget(1)
	seed, _ = c.seed(tasks, 2)
	if seed.Maps[0] != 0b11 { // forgotten task falls back to the full pool
		t.Fatalf("forgotten task kept its mask: %b", seed.Maps[0])
	}
}
