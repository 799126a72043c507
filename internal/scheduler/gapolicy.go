package scheduler

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GAPolicy is the genetic-algorithm scheduling policy of §2.1. Each Plan
// call evolves a population of two-part solution strings; the best
// solution of the previous call is mapped onto the current task set and
// injected as a seed, which is how the algorithm "absorbs system changes
// such as the addition or deletion of tasks" rather than restarting from
// scratch.
type GAPolicy struct {
	Config        ga.Config
	Weights       schedule.CostWeights
	FrontWeighted bool
	rng           *sim.RNG

	carry carryState // previous best, keyed by task ID

	// Activity counters are atomic telemetry instruments so a live
	// registry (and Stats) can read them while another goroutine plans.
	plans       telemetry.Counter
	generations telemetry.Counter
	costEvals   telemetry.Counter
}

// GAPolicyStats is a snapshot of GA activity accumulated across Plan
// calls.
type GAPolicyStats struct {
	Plans       int
	Generations int
	CostEvals   int
}

// NewGAPolicy returns a GA policy with the given configuration, drawing
// randomness from rng.
func NewGAPolicy(cfg ga.Config, rng *sim.RNG) *GAPolicy {
	return &GAPolicy{
		Config:        cfg,
		Weights:       schedule.DefaultWeights(),
		FrontWeighted: true,
		rng:           rng,
		carry:         newCarryState(),
	}
}

// Name implements Policy.
func (g *GAPolicy) Name() string { return "ga" }

// Forget implements Policy.
func (g *GAPolicy) Forget(taskID int) { g.carry.forget(taskID) }

// Stats returns a snapshot of cumulative GA activity; safe to call from
// any goroutine.
func (g *GAPolicy) Stats() GAPolicyStats {
	return GAPolicyStats{
		Plans:       int(g.plans.Value()),
		Generations: int(g.generations.Value()),
		CostEvals:   int(g.costEvals.Value()),
	}
}

// RegisterMetrics attaches the policy's counters to a telemetry
// registry under ga_*{resource=...} names, plus a gauge reporting the
// configured evaluation worker pool (the utilisation knob of PR 2's
// parallel cost evaluation).
func (g *GAPolicy) RegisterMetrics(reg *telemetry.Registry, resource string) {
	if reg == nil {
		return
	}
	l := func(name string) string { return telemetry.Label(name, "resource", resource) }
	reg.RegisterCounter(l("ga_plans_total"), &g.plans)
	reg.RegisterCounter(l("ga_generations_total"), &g.generations)
	reg.RegisterCounter(l("ga_cost_evals_total"), &g.costEvals)
	workers := g.Config.Workers
	if workers < 1 {
		workers = 1
	}
	reg.Gauge(l("ga_workers")).Set(float64(workers))
}

// Plan implements Policy.
func (g *GAPolicy) Plan(tasks []schedule.Task, res schedule.Resource, now float64, predict schedule.Predictor) *schedule.Schedule {
	if len(tasks) == 0 {
		g.carry.order = nil
		return schedule.Build(schedule.Solution{Order: []int{}, Maps: []uint64{}}, tasks, res, now, predict)
	}
	p := &schedule.Problem{
		Tasks:         tasks,
		Res:           res,
		Base:          now,
		Predict:       predict,
		Weights:       g.Weights,
		FrontWeighted: g.FrontWeighted,
	}

	// Seed the population with a greedy baseline plus the previous best
	// mapped onto the current task set (carryState): surviving tasks keep
	// their relative order and node maps, new tasks append in arrival
	// order over the whole pool.
	seeds := []schedule.Solution{p.GreedySeed()}
	if carried, ok := g.carry.seed(tasks, res.NumNodes); ok {
		seeds = append(seeds, carried)
	}
	// Validation is hoisted out of the GA's cost loop (Problem.Cost
	// trusts its input), so externally constructed solutions are checked
	// here: once per Plan instead of once per cost evaluation.
	for _, s := range seeds {
		if err := s.Validate(len(tasks), res.NumNodes); err != nil {
			panic(fmt.Sprintf("scheduler: ga seed invalid: %v", err))
		}
	}

	res2 := ga.Run[schedule.Solution](p, g.Config, g.rng, seeds)
	g.plans.Inc()
	g.generations.Add(uint64(res2.Generations))
	g.costEvals.Add(uint64(res2.CostEvals))

	g.carry.remember(tasks, res2.Best)
	return schedule.Build(res2.Best, tasks, res, now, predict)
}

// carryState carries the previous best solution across scheduling events
// keyed by task ID.
type carryState struct {
	order []int
	maps  map[int]uint64
}

func newCarryState() carryState {
	return carryState{maps: map[int]uint64{}}
}

func (c *carryState) forget(taskID int) { delete(c.maps, taskID) }

func (c *carryState) remember(tasks []schedule.Task, best schedule.Solution) {
	c.order = c.order[:0]
	for _, pos := range best.Order {
		c.order = append(c.order, tasks[pos].ID)
	}
	fresh := make(map[int]uint64, len(tasks))
	for pos, t := range tasks {
		fresh[t.ID] = best.Maps[pos]
	}
	c.maps = fresh
}

func (c *carryState) seed(tasks []schedule.Task, numNodes int) (schedule.Solution, bool) {
	if len(c.order) == 0 {
		return schedule.Solution{}, false
	}
	posByID := make(map[int]int, len(tasks))
	for pos, t := range tasks {
		posByID[t.ID] = pos
	}
	order := make([]int, 0, len(tasks))
	used := make(map[int]bool, len(tasks))
	for _, id := range c.order {
		if pos, ok := posByID[id]; ok && !used[pos] {
			order = append(order, pos)
			used[pos] = true
		}
	}
	for pos := range tasks {
		if !used[pos] {
			order = append(order, pos)
		}
	}
	full := uint64(1)<<uint(numNodes) - 1
	if numNodes >= 64 {
		full = ^uint64(0)
	}
	maps := make([]uint64, len(tasks))
	for pos, t := range tasks {
		if m, ok := c.maps[t.ID]; ok && m&full != 0 {
			maps[pos] = m & full
		} else {
			maps[pos] = full
		}
	}
	sol := schedule.Solution{Order: order, Maps: maps}
	if sol.Validate(len(tasks), numNodes) != nil {
		return schedule.Solution{}, false
	}
	return sol, true
}
