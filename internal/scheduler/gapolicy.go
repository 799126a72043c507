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
//
// The policy keeps its planning state between calls — the GA's
// population arenas, the problem with its scratch builders, the seeds and
// the schedule it returns — so a scheduling event allocates nothing once
// these have grown to the longest queue seen.
type GAPolicy struct {
	Config        ga.Config
	Weights       schedule.CostWeights
	FrontWeighted bool
	rng           *sim.RNG

	carry carryState // previous best, keyed by task ID

	runner  ga.Runner[schedule.Solution]
	problem schedule.Problem // also builds Plan's result, which the next Plan overwrites
	greedy  schedule.Solution
	seeds   []schedule.Solution

	// Activity counters are atomic telemetry instruments so a live
	// registry (and Stats) can read them while another goroutine plans.
	plans       telemetry.Counter
	generations telemetry.Counter
	costEvals   telemetry.Counter
	evaluations telemetry.Counter
}

// GAPolicyStats is a snapshot of GA activity accumulated across Plan
// calls.
type GAPolicyStats struct {
	Plans       int
	Generations int
	CostEvals   int // cost requests: population size × generations
	Evaluations int // Cost calls made; the rest were inherited from a parent
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
		Evaluations: int(g.evaluations.Value()),
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
	reg.RegisterCounter(l("ga_evaluations_total"), &g.evaluations)
	workers := g.Config.Workers
	if workers < 1 {
		workers = 1
	}
	reg.Gauge(l("ga_workers")).Set(float64(workers))
}

// Plan implements Policy. The returned schedule is the policy's own and
// is overwritten by the next Plan.
func (g *GAPolicy) Plan(tasks []schedule.Task, res schedule.Resource, now float64, predict schedule.Predictor) *schedule.Schedule {
	if err := res.Validate(); err != nil {
		panic(fmt.Sprintf("scheduler: ga plan on invalid resource: %v", err))
	}
	p := &g.problem
	p.Reset(tasks, res, now, predict)
	if len(tasks) == 0 {
		g.carry.order = g.carry.order[:0]
		return p.Build(schedule.Solution{})
	}
	p.Weights, p.FrontWeighted = g.Weights, g.FrontWeighted

	// Seed the population with a greedy baseline plus the previous best
	// mapped onto the current task set (carryState): surviving tasks keep
	// their relative order and node maps, new tasks append in arrival
	// order over the whole pool.
	p.GreedySeed(&g.greedy)
	g.seeds = append(g.seeds[:0], g.greedy)
	if carried, ok := g.carry.seed(tasks, res.NumNodes); ok {
		g.seeds = append(g.seeds, carried)
	}
	// Validation is hoisted out of the GA's cost loop (Problem.Cost
	// trusts its input), so externally constructed solutions are checked
	// here: once per Plan instead of once per cost evaluation.
	for _, s := range g.seeds {
		if err := s.Validate(len(tasks), res.NumNodes); err != nil {
			panic(fmt.Sprintf("scheduler: ga seed invalid: %v", err))
		}
	}

	out := g.runner.Run(p, g.Config, g.rng, g.seeds)
	g.plans.Inc()
	g.generations.Add(uint64(out.Generations))
	g.costEvals.Add(uint64(out.CostEvals))
	g.evaluations.Add(uint64(out.Evaluations))

	g.carry.remember(tasks, out.Best)
	return p.Build(out.Best)
}

// carryState carries the previous best solution across scheduling events
// keyed by task ID. Its maps and the seed it builds are reused: cleared,
// not remade.
type carryState struct {
	order []int
	maps  map[int]uint64

	// seed scratch
	posByID map[int]int
	used    []bool
	sol     schedule.Solution
}

func newCarryState() carryState {
	return carryState{maps: map[int]uint64{}, posByID: map[int]int{}}
}

func (c *carryState) forget(taskID int) { delete(c.maps, taskID) }

func (c *carryState) remember(tasks []schedule.Task, best schedule.Solution) {
	c.order = c.order[:0]
	for _, pos := range best.Order {
		c.order = append(c.order, tasks[pos].ID)
	}
	clear(c.maps)
	for pos, t := range tasks {
		c.maps[t.ID] = best.Maps[pos]
	}
}

// seed maps the remembered solution onto tasks. The returned solution is
// the carry's own and is overwritten by the next seed.
func (c *carryState) seed(tasks []schedule.Task, numNodes int) (schedule.Solution, bool) {
	if len(c.order) == 0 {
		return schedule.Solution{}, false
	}
	clear(c.posByID)
	for pos, t := range tasks {
		c.posByID[t.ID] = pos
	}
	c.used = append(c.used[:0], make([]bool, len(tasks))...)
	order := c.sol.Order[:0]
	for _, id := range c.order {
		if pos, ok := c.posByID[id]; ok && !c.used[pos] {
			order = append(order, pos)
			c.used[pos] = true
		}
	}
	for pos := range tasks {
		if !c.used[pos] {
			order = append(order, pos)
		}
	}
	full := uint64(1)<<uint(numNodes) - 1
	if numNodes >= 64 {
		full = ^uint64(0)
	}
	maps := c.sol.Maps[:0]
	for _, t := range tasks {
		if m, ok := c.maps[t.ID]; ok && m&full != 0 {
			maps = append(maps, m&full)
		} else {
			maps = append(maps, full)
		}
	}
	c.sol = schedule.Solution{Order: order, Maps: maps}
	if c.sol.Validate(len(tasks), numNodes) != nil {
		return schedule.Solution{}, false
	}
	return c.sol, true
}
