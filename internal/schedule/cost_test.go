package schedule

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// costOf evaluates eq. 8 for sol through a Problem whose predictor
// charges dur seconds whatever the node count.
func costOf(sol Solution, tasks []Task, res Resource, dur float64, w CostWeights, frontWeighted bool) CostBreakdown {
	p := NewProblem(tasks, res, 0, constPredictor(dur))
	p.Weights, p.FrontWeighted = w, frontWeighted
	return p.Breakdown(sol)
}

func TestCostMakespanTerm(t *testing.T) {
	tasks := makeTasks(1, 1e9)
	sol := Solution{Order: []int{0}, Maps: []uint64{1}}
	c := costOf(sol, tasks, NewResource(1), 40, CostWeights{Makespan: 1}, true)
	if c.Makespan != 40 {
		t.Fatalf("makespan term = %v, want 40", c.Makespan)
	}
	if c.Combined != 40 {
		t.Fatalf("combined = %v, want 40 with only the makespan weighted", c.Combined)
	}
}

func TestCostContractPenalty(t *testing.T) {
	tasks := []Task{{ID: 0, Deadline: 5}, {ID: 1, Deadline: 25}}
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{1, 1}}
	// Task 0 ends at 10 (5 late); task 1 ends at 20 (on time).
	c := costOf(sol, tasks, NewResource(1), 10, DefaultWeights(), true)
	if c.ContractPen != 5 {
		t.Fatalf("contract penalty = %v, want 5", c.ContractPen)
	}
}

func TestCostIdleTimeMeasured(t *testing.T) {
	// Two nodes, one task on node 0 for 10s: node 1 idles the whole
	// horizon, node 0 none. Unweighted idle averaged per node = 5.
	tasks := makeTasks(1, 1e9)
	sol := Solution{Order: []int{0}, Maps: []uint64{0b01}}
	c := costOf(sol, tasks, NewResource(2), 10, DefaultWeights(), false)
	if c.IdleRaw != 5 {
		t.Fatalf("raw idle = %v, want 5", c.IdleRaw)
	}
	if c.Idle != c.IdleRaw {
		t.Fatalf("unweighted idle %v != raw idle %v", c.Idle, c.IdleRaw)
	}
}

func TestCostFrontWeighting(t *testing.T) {
	// Horizon [0,20] on 2 nodes. Node 0 runs two tasks back to back, busy
	// the whole horizon. Node 1's one task either arrives at 10, so the
	// node idles [0,10] then works (early gap), or runs at once and the
	// node idles [10,20] (late gap). Equal raw idle; the front-weighted
	// idle must be strictly larger for the early gap (§2.1: idle at the
	// front of the schedule is wasted first and least likely to be
	// recovered).
	sol := Solution{Order: []int{0, 1, 2}, Maps: []uint64{0b01, 0b01, 0b10}}
	cost := func(arrival float64, frontWeighted bool) CostBreakdown {
		tasks := makeTasks(3, 1e9)
		tasks[2].Arrival = arrival
		return costOf(sol, tasks, NewResource(2), 10, CostWeights{Idle: 1}, frontWeighted)
	}
	early, late := cost(10, true), cost(0, true)
	if early.IdleRaw != late.IdleRaw {
		t.Fatalf("raw idle differs: %v vs %v", early.IdleRaw, late.IdleRaw)
	}
	if early.Idle <= late.Idle {
		t.Fatalf("front-weighted idle: early gap %v not penalised above late gap %v", early.Idle, late.Idle)
	}
	// Unweighted mode treats them identically.
	if earlyU, lateU := cost(10, false), cost(0, false); earlyU.Idle != lateU.Idle {
		t.Fatalf("unweighted idle differs: %v vs %v", earlyU.Idle, lateU.Idle)
	}
}

func TestCostWeightsCombine(t *testing.T) {
	tasks := []Task{{ID: 0, Deadline: 4}} // 6 late
	sol := Solution{Order: []int{0}, Maps: []uint64{1}}
	c := costOf(sol, tasks, NewResource(1), 10, CostWeights{Makespan: 1, Idle: 1, Deadline: 2}, true)
	want := (1*10.0 + 1*0.0 + 2*6.0) / 4.0
	if c.Combined != want {
		t.Fatalf("combined = %v, want %v", c.Combined, want)
	}
}

func TestCostZeroWeightsDoNotDivideByZero(t *testing.T) {
	c := costOf(Solution{Order: []int{}, Maps: []uint64{}}, nil, NewResource(1), 1, CostWeights{}, true)
	if c.Combined != 0 {
		t.Fatalf("combined = %v for empty schedule with zero weights", c.Combined)
	}
}

func TestCostEmptySchedule(t *testing.T) {
	p := NewProblem(nil, NewResource(4), 100, constPredictor(1))
	c := p.Breakdown(Solution{Order: []int{}, Maps: []uint64{}})
	if c.Combined != 0 || c.Makespan != 0 || c.Idle != 0 {
		t.Fatalf("empty schedule cost = %+v, want zeros", c)
	}
}

func TestWeightedGapProperties(t *testing.T) {
	// Weight is in (1,2) and decreases towards the makespan.
	front := weightedGap(0, 10, 0, 100, true)
	back := weightedGap(90, 100, 0, 100, true)
	if front <= back {
		t.Fatalf("front gap weight %v <= back gap weight %v", front, back)
	}
	if front > 2*10 || back < 10 {
		t.Fatalf("gap weights out of [1,2] band: front=%v back=%v", front, back)
	}
	if got := weightedGap(5, 5, 0, 100, true); got != 0 {
		t.Fatalf("zero-length gap = %v", got)
	}
	if got := weightedGap(0, 10, 0, 100, false); got != 10 {
		t.Fatalf("unweighted gap = %v, want 10", got)
	}
	if got := weightedGap(0, 10, 0, 0, true); got != 10 {
		t.Fatalf("degenerate horizon gap = %v, want raw 10", got)
	}
}

// Integration: local search over the scheduling problem improves on random
// solutions, confirming the cost surface rewards balanced schedules.
func TestCostSurfaceRewardsBalance(t *testing.T) {
	tasks := makeTasks(8, 1e9)
	res := NewResource(4)
	p := NewProblem(tasks, res, 0, scalePredictor(40))
	rng := sim.NewRNG(12)

	randomBest := 1e18
	var s Solution
	for i := 0; i < 200; i++ {
		p.Random(&s, rng)
		if c := p.Cost(s); c < randomBest {
			randomBest = c
		}
	}
	var best, m Solution
	p.GreedySeed(&best)
	bestCost := p.Cost(best)
	for gen := 0; gen < 400; gen++ {
		p.Copy(&m, best)
		p.Mutate(&m, rng)
		if c := p.Cost(m); c < bestCost {
			best, m, bestCost = m, best, c
		}
	}
	if bestCost > randomBest {
		t.Fatalf("hill-climb from greedy seed (%v) did not beat 200 random draws (%v)", bestCost, randomBest)
	}
}

func TestGreedySeedIsLegitimateAndReasonable(t *testing.T) {
	tasks := makeTasks(10, 1e9)
	res := NewResource(4)
	p := NewProblem(tasks, res, 0, scalePredictor(40))
	var seed Solution
	p.GreedySeed(&seed)
	if err := seed.Validate(10, 4); err != nil {
		t.Fatalf("greedy seed invalid: %v", err)
	}
	s := build(seed, tasks, res, 0, scalePredictor(40))
	// Perfectly scalable work: the serial bound is 10*40/4 = 100.
	if s.Makespan > 150 {
		t.Fatalf("greedy seed makespan %v is worse than plausible bounds", s.Makespan)
	}
}

func TestCheapestNodesPicksEarliest(t *testing.T) {
	busy := []float64{9, 2, 5, 7, 2}
	got := cheapestNodes([]int{3, 3, 3, 3, 3, 3, 3}, busy) // stale scratch
	want := []int{1, 4, 2, 3, 0}                           // equal availability: lower index first
	if !slices.Equal(got, want) {
		t.Fatalf("cheapestNodes = %v, want %v", got, want)
	}

	// GreedySeed gives each task the prefix of that order that ends it
	// earliest: the two nodes free at 2 start in unison at 2, and a task
	// arriving at 10 starts at 10 on whichever node.
	res := NewResource(5)
	copy(res.Avail, busy)
	tasks := []Task{{ID: 1}, {ID: 2, Arrival: 10}}
	p := NewProblem(tasks, res, 0, scalePredictor(8))
	var seed Solution
	p.GreedySeed(&seed)
	if seed.Maps[0] != 0b10010 { // nodes 1 and 4: 2 + 8/2 = 6 beats 5 + 8/3
		t.Fatalf("first task mapped to %b, want 10010", seed.Maps[0])
	}
	if s := build(seed, tasks, res, 0, scalePredictor(8)); s.Items[1].Start != 10 {
		t.Fatalf("floor not applied: second task starts at %v", s.Items[1].Start)
	}
}
