package scheduler

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// This file keeps a cloning GA — engine, two-part operators, greedy seed
// and the policy's carry state, each allocating a fresh genome per step,
// and calling Cost on every genome of every generation — as the
// reference the recycling engine is held to, bit for bit. Only the cost
// function is shared.

// refOps is a ga.Problem whose operators return a new genome each.
type refOps struct {
	p    *schedule.Problem
	cost func(schedule.Solution) float64
}

func (o refOps) random(rng *sim.RNG) schedule.Solution {
	return refRandomSolution(len(o.p.Tasks), o.p.Res.NumNodes, rng)
}

func (o refOps) crossover(a, b schedule.Solution, rng *sim.RNG) (schedule.Solution, schedule.Solution) {
	return refCrossover(a, b, o.p.Res.NumNodes, rng)
}

func (o refOps) mutate(g schedule.Solution, rng *sim.RNG) schedule.Solution {
	return refMutate(g, o.p.Res.NumNodes, rng)
}

func refRun(p refOps, cfg ga.Config, rng *sim.RNG, seeds []schedule.Solution) ga.Result[schedule.Solution] {
	refSanitize(&cfg)

	pop := make([]schedule.Solution, 0, cfg.PopulationSize)
	for _, s := range seeds {
		if len(pop) == cfg.PopulationSize {
			break
		}
		pop = append(pop, s.Clone())
	}
	for len(pop) < cfg.PopulationSize {
		pop = append(pop, p.random(rng))
	}

	res := ga.Result[schedule.Solution]{BestCost: math.Inf(1)}
	costs := make([]float64, cfg.PopulationSize)
	var parents [][]schedule.Solution // parents[i]: the pool genomes child i was bred from
	stale := 0

	for gen := 0; gen < cfg.MaxGenerations; gen++ {
		for i, g := range pop {
			costs[i] = p.cost(g)
			// Evaluations counts the children a lineage-reusing engine
			// must score: every initial genome, and every non-elite child
			// equal to neither of its parents.
			if gen == 0 || i >= cfg.Elitism && !slices.ContainsFunc(parents[i], func(q schedule.Solution) bool {
				return slices.Equal(g.Order, q.Order) && slices.Equal(g.Maps, q.Maps)
			}) {
				res.Evaluations++
			}
		}
		res.CostEvals += len(pop)
		genBest, genBestCost := -1, math.Inf(1)
		for i, c := range costs {
			if c < genBestCost {
				genBest, genBestCost = i, c
			}
		}
		if genBestCost < res.BestCost {
			res.Best = pop[genBest].Clone()
			res.BestCost = genBestCost
			stale = 0
		} else {
			if gen == 0 {
				res.Best = pop[0].Clone() // no finite cost
			}
			stale++
		}
		res.Generations = gen + 1
		res.History = append(res.History, res.BestCost)
		if cfg.ConvergenceWindow > 0 && stale >= cfg.ConvergenceWindow {
			break
		}
		if gen == cfg.MaxGenerations-1 {
			break
		}

		fitness := refScaleFitness(costs)
		pool := refStochasticRemainder(pop, fitness, cfg.PopulationSize, rng)

		next := make([]schedule.Solution, 0, cfg.PopulationSize)
		parents = parents[:0]
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for i := 0; i+1 < len(pool); i += 2 {
			a, b := pool[i], pool[i+1]
			if rng.Bool(cfg.CrossoverRate) {
				a, b = p.crossover(a, b, rng)
			} else {
				a, b = a.Clone(), b.Clone()
			}
			next = append(next, a, b)
			parents = append(parents, pool[i:i+2], pool[i:i+2])
		}
		if len(pool)%2 == 1 {
			next = append(next, pool[len(pool)-1].Clone())
			parents = append(parents, pool[len(pool)-1:])
		}
		for i := range next {
			if rng.Bool(cfg.MutationRate) {
				next[i] = p.mutate(next[i], rng)
			}
		}
		for i := 0; i < cfg.Elitism && i < len(next); i++ {
			next[i] = res.Best.Clone()
		}
		pop = next[:cfg.PopulationSize]
	}
	return res
}

func refSanitize(c *ga.Config) {
	c.PopulationSize = max(c.PopulationSize, 2)
	c.MaxGenerations = max(c.MaxGenerations, 1)
	c.CrossoverRate = min(max(c.CrossoverRate, 0), 1)
	c.MutationRate = min(max(c.MutationRate, 0), 1)
	c.Elitism = min(max(c.Elitism, 0), c.PopulationSize-1)
	c.ConvergenceWindow = max(c.ConvergenceWindow, 0)
}

func refScaleFitness(costs []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	out := make([]float64, len(costs))
	if hi == lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	span := hi - lo
	for i, c := range costs {
		out[i] = (hi - c) / span
	}
	return out
}

func refStochasticRemainder(pop []schedule.Solution, fitness []float64, n int, rng *sim.RNG) []schedule.Solution {
	total := 0.0
	for _, f := range fitness {
		total += f
	}
	pool := make([]schedule.Solution, 0, n)
	if total <= 0 {
		for len(pool) < n {
			pool = append(pool, pop[rng.Intn(len(pop))].Clone())
		}
		return pool
	}
	frac := make([]float64, len(pop))
	for i, f := range fitness {
		expected := f / total * float64(n)
		whole := math.Floor(expected)
		frac[i] = expected - whole
		for c := 0; c < int(whole) && len(pool) < n; c++ {
			pool = append(pool, pop[i].Clone())
		}
	}
	for guard := 0; guard < 16*n && len(pool) < n; guard++ {
		i := rng.Intn(len(pop))
		if rng.Bool(frac[i]) {
			pool = append(pool, pop[i].Clone())
		}
	}
	if len(pool) >= n {
		return pool
	}
	order := make([]int, len(pop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fitness[order[a]] > fitness[order[b]] })
	for k := 0; len(pool) < n; k++ {
		pool = append(pool, pop[order[k%len(order)]].Clone())
	}
	return pool
}

func refFullMask(numNodes int) uint64 {
	if numNodes >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(numNodes)) - 1
}

func refRandomMask(numNodes int, rng *sim.RNG) uint64 {
	for {
		m := rng.Uint64()
		if numNodes != 64 {
			m &= refFullMask(numNodes)
		}
		if m != 0 {
			return m
		}
	}
}

func refRandomSolution(numTasks, numNodes int, rng *sim.RNG) schedule.Solution {
	s := schedule.Solution{Order: rng.Perm(numTasks), Maps: make([]uint64, numTasks)}
	for i := range s.Maps {
		s.Maps[i] = refRandomMask(numNodes, rng)
	}
	return s
}

func refCrossover(a, b schedule.Solution, numNodes int, rng *sim.RNG) (schedule.Solution, schedule.Solution) {
	n := len(a.Order)
	if n == 0 {
		return a.Clone(), b.Clone()
	}
	cut := rng.Intn(n + 1)
	c1 := refSpliceOrder(a.Order, b.Order, cut)
	c2 := refSpliceOrder(b.Order, a.Order, cut)
	bitCut := rng.Intn(n*numNodes + 1)
	m1 := refSpliceMaps(c1, a.Maps, b.Maps, numNodes, bitCut)
	m2 := refSpliceMaps(c2, b.Maps, a.Maps, numNodes, bitCut)
	return schedule.Solution{Order: c1, Maps: m1}, schedule.Solution{Order: c2, Maps: m2}
}

func refSpliceOrder(head, tail []int, cut int) []int {
	out := make([]int, 0, len(head))
	used := make([]bool, len(head))
	for _, p := range head[:cut] {
		out = append(out, p)
		used[p] = true
	}
	for _, p := range tail {
		if !used[p] {
			out = append(out, p)
		}
	}
	return out
}

func refSpliceMaps(order []int, first, second []uint64, numNodes int, bitCut int) []uint64 {
	out := make([]uint64, len(order))
	for rank, taskPos := range order {
		lo := rank * numNodes
		hi := lo + numNodes
		var m uint64
		switch {
		case hi <= bitCut:
			m = first[taskPos]
		case lo >= bitCut:
			m = second[taskPos]
		default:
			k := uint(bitCut - lo)
			lowBits := (uint64(1) << k) - 1
			m = first[taskPos]&lowBits | second[taskPos]&^lowBits
		}
		if m == 0 {
			m = first[taskPos] | second[taskPos]
			if m == 0 {
				m = 1
			}
		}
		out[taskPos] = m
	}
	return out
}

func refMutate(s schedule.Solution, numNodes int, rng *sim.RNG) schedule.Solution {
	out := s.Clone()
	n := len(out.Order)
	if n == 0 {
		return out
	}
	i, j := rng.Intn(n), rng.Intn(n)
	out.Order[i], out.Order[j] = out.Order[j], out.Order[i]
	t := rng.Intn(n)
	bit := uint64(1) << uint(rng.Intn(numNodes))
	out.Maps[t] ^= bit
	if out.Maps[t] == 0 {
		out.Maps[t] = bit
	}
	return out
}

// refGreedySeed is the parent's GreedySeed: one insertion sort of the
// nodes per node count per task.
func refGreedySeed(p *schedule.Problem) schedule.Solution {
	n := len(p.Tasks)
	sol := schedule.Solution{Order: make([]int, n), Maps: make([]uint64, n)}
	busy := append([]float64(nil), p.Res.Avail...)
	for i := range sol.Order {
		sol.Order[i] = i
	}
	for _, taskPos := range sol.Order {
		t := p.Tasks[taskPos]
		bestMask, bestEnd := uint64(0), 0.0
		for k := 1; k <= p.Res.NumNodes; k++ {
			mask, start := refCheapestNodes(busy, k, max(p.Base, t.Arrival))
			end := start + p.Predict(t.App, k)
			if bestMask == 0 || end < bestEnd {
				bestMask, bestEnd = mask, end
			}
		}
		sol.Maps[taskPos] = bestMask
		for m := bestMask; m != 0; m &= m - 1 {
			busy[bits.TrailingZeros64(m)] = bestEnd
		}
	}
	return sol
}

func refCheapestNodes(busy []float64, k int, floor float64) (uint64, float64) {
	type na struct {
		idx   int
		avail float64
	}
	nodes := make([]na, len(busy))
	for i, a := range busy {
		nodes[i] = na{i, a}
	}
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && (nodes[j].avail < nodes[j-1].avail ||
			(nodes[j].avail == nodes[j-1].avail && nodes[j].idx < nodes[j-1].idx)); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	var mask uint64
	start := floor
	for i := 0; i < k; i++ {
		mask |= uint64(1) << uint(nodes[i].idx)
		if nodes[i].avail > start {
			start = nodes[i].avail
		}
	}
	return mask, start
}

// refGAPolicy is the parent's GAPolicy.Plan: a fresh Problem, seeds and
// result schedule per call, carry maps remade on every remember.
type refGAPolicy struct {
	cfg   ga.Config
	rng   *sim.RNG
	order []int
	maps  map[int]uint64
}

func (g *refGAPolicy) forget(taskID int) { delete(g.maps, taskID) }

func (g *refGAPolicy) plan(tasks []schedule.Task, res schedule.Resource, now float64, predict schedule.Predictor) *schedule.Schedule {
	if len(tasks) == 0 {
		g.order = nil
		return schedule.Build(schedule.Solution{Order: []int{}, Maps: []uint64{}}, tasks, res, now, predict)
	}
	p := schedule.NewProblem(tasks, res, now, predict)
	seeds := []schedule.Solution{refGreedySeed(p)}
	if carried, ok := g.seed(tasks, res.NumNodes); ok {
		seeds = append(seeds, carried)
	}
	out := refRun(refOps{p, p.Cost}, g.cfg, g.rng, seeds)
	g.order = g.order[:0]
	for _, pos := range out.Best.Order {
		g.order = append(g.order, tasks[pos].ID)
	}
	g.maps = make(map[int]uint64, len(tasks))
	for pos, t := range tasks {
		g.maps[t.ID] = out.Best.Maps[pos]
	}
	return schedule.Build(out.Best, tasks, res, now, predict)
}

func (g *refGAPolicy) seed(tasks []schedule.Task, numNodes int) (schedule.Solution, bool) {
	if len(g.order) == 0 {
		return schedule.Solution{}, false
	}
	posByID := make(map[int]int, len(tasks))
	for pos, t := range tasks {
		posByID[t.ID] = pos
	}
	order := make([]int, 0, len(tasks))
	used := make(map[int]bool, len(tasks))
	for _, id := range g.order {
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
	full := refFullMask(numNodes)
	maps := make([]uint64, len(tasks))
	for pos, t := range tasks {
		if m, ok := g.maps[t.ID]; ok && m&full != 0 {
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

// randomProblem draws a scheduling problem: up to maxTasks case-study
// tasks with staggered arrivals on a resource of 1–16 nodes whose
// availability is already partly committed.
func randomProblem(t testing.TB, rng *sim.RNG, e *pace.Engine, maxTasks int) *schedule.Problem {
	names := pace.CaseStudyLibrary().Names()
	nodes := rng.IntIn(1, 16)
	res := schedule.NewResource(nodes)
	for i := range res.Avail {
		if rng.Bool(0.5) {
			res.Avail[i] = rng.UniformIn(0, 200)
		}
	}
	tasks := make([]schedule.Task, rng.IntIn(1, maxTasks))
	for i := range tasks {
		tasks[i] = schedule.Task{
			ID:       i + 1,
			App:      appOf(t, names[rng.Intn(len(names))]),
			Arrival:  rng.UniformIn(0, 50),
			Deadline: rng.UniformIn(20, 400),
		}
	}
	hw := []pace.Hardware{pace.SGIOrigin2000, pace.SunUltra10, pace.SunSPARCstation2}[rng.Intn(3)]
	return schedule.NewProblem(tasks, res, rng.UniformIn(0, 20), enginePredictor(e, hw))
}

// randomConfig draws GA hyper-parameters across their whole range,
// degenerate ends included.
func randomConfig(rng *sim.RNG, workers int) ga.Config {
	rate := func() float64 { return []float64{0, 1, rng.Float64()}[rng.Intn(3)] }
	return ga.Config{
		PopulationSize:    rng.IntIn(1, 24),
		MaxGenerations:    rng.IntIn(0, 14),
		CrossoverRate:     rate(),
		MutationRate:      rate(),
		Elitism:           rng.IntIn(-1, 4),
		ConvergenceWindow: rng.IntIn(0, 5),
		Workers:           workers,
	}
}

// TestRunnerMatchesCloningEngine holds ga.Runner to the parent's cloning
// engine on 240 seeded scheduling problems at GA widths 1, 2 and 4. One
// Runner serves every problem of a width, so its arenas are recycled
// across queue lengths, node counts and population sizes. Best,
// BestCost, History, Generations, CostEvals, Evaluations (which the
// reference counts by comparing each child with its parents) and the RNG
// state afterwards must all be identical.
func TestRunnerMatchesCloningEngine(t *testing.T) {
	e := pace.NewEngine()
	for _, workers := range []int{1, 2, 4} {
		var runner ga.Runner[schedule.Solution]
		gen := sim.NewRNG(uint64(100 + workers))
		for trial := 0; trial < 240; trial++ {
			maxTasks := 12
			if trial%20 == 19 {
				maxTasks = 80 // past one 64-bit word of task positions
			}
			p := randomProblem(t, gen, e, maxTasks)
			cfg := randomConfig(gen, workers)
			var seeds []schedule.Solution
			for k := gen.Intn(4); k > 0; k-- {
				if gen.Bool(0.5) {
					seeds = append(seeds, refGreedySeed(p))
				} else {
					seeds = append(seeds, refRandomSolution(len(p.Tasks), p.Res.NumNodes, gen))
				}
			}
			seed := gen.Uint64()
			wantRNG, gotRNG := sim.NewRNG(seed), sim.NewRNG(seed)
			want := refRun(refOps{p, p.Cost}, cfg, wantRNG, seeds)
			got := runner.Run(p, cfg, gotRNG, seeds)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d, trial %d (%d tasks, %d nodes, %+v):\nrunner   %+v\ncloning  %+v",
					workers, trial, len(p.Tasks), p.Res.NumNodes, cfg, got, want)
			}
			if *gotRNG != *wantRNG {
				t.Fatalf("workers %d, trial %d: RNG state diverged after the run", workers, trial)
			}
		}
	}
}

// nonFinite is a scheduling problem whose cost is rewritten by cost, so
// that some or all genomes cost NaN or +Inf.
type nonFinite struct {
	*schedule.Problem
	cost func(schedule.Solution) float64
}

func (q nonFinite) Cost(g schedule.Solution) float64 { return q.cost(g) }

// genomeHash is a deterministic hash of a solution, to pick the genomes
// whose cost is not finite.
func genomeHash(g schedule.Solution) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range g.Order {
		h = (h ^ uint64(v)) * 1099511628211
	}
	for _, m := range g.Maps {
		h = (h ^ m) * 1099511628211
	}
	return h
}

// TestRunnerMatchesCloningEngineNonFinite holds ga.Runner to the cloning
// engine on problems where a share of the genomes, or all of them, cost
// NaN or +Inf, at widths 1, 2 and 4. When no cost is finite, Best is the
// first initial genome and its elites must inherit its own (possibly
// NaN) cost, not BestCost's +Inf: the fitness scaling, and so every
// later draw, tells the two apart.
func TestRunnerMatchesCloningEngineNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	variants := []struct {
		name string
		cost func(p *schedule.Problem, g schedule.Solution) float64
	}{
		{"NaN on a third", func(p *schedule.Problem, g schedule.Solution) float64 {
			if genomeHash(g)%3 == 0 {
				return nan
			}
			return p.Cost(g)
		}},
		{"+Inf on a third", func(p *schedule.Problem, g schedule.Solution) float64 {
			if genomeHash(g)%3 == 0 {
				return inf
			}
			return p.Cost(g)
		}},
		{"NaN, +Inf or finite", func(p *schedule.Problem, g schedule.Solution) float64 {
			return []float64{nan, inf, p.Cost(g)}[genomeHash(g)%3]
		}},
		{"all NaN", func(*schedule.Problem, schedule.Solution) float64 { return nan }},
		{"all +Inf", func(*schedule.Problem, schedule.Solution) float64 { return inf }},
		{"all NaN or +Inf", func(_ *schedule.Problem, g schedule.Solution) float64 {
			return []float64{nan, inf}[genomeHash(g)%2]
		}},
	}
	e := pace.NewEngine()
	for _, v := range variants {
		for _, workers := range []int{1, 2, 4} {
			var runner ga.Runner[schedule.Solution]
			gen := sim.NewRNG(uint64(300 + workers))
			for trial := 0; trial < 60; trial++ {
				p := randomProblem(t, gen, e, 12)
				cost := func(g schedule.Solution) float64 { return v.cost(p, g) }
				cfg := randomConfig(gen, workers)
				var seeds []schedule.Solution
				if gen.Bool(0.5) {
					seeds = append(seeds, refGreedySeed(p))
				}
				seed := gen.Uint64()
				wantRNG, gotRNG := sim.NewRNG(seed), sim.NewRNG(seed)
				want := refRun(refOps{p, cost}, cfg, wantRNG, seeds)
				got := runner.Run(nonFinite{p, cost}, cfg, gotRNG, seeds)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, workers %d, trial %d (%d tasks, %d nodes, %+v):\nrunner   %+v\ncloning  %+v",
						v.name, workers, trial, len(p.Tasks), p.Res.NumNodes, cfg, got, want)
				}
				if *gotRNG != *wantRNG {
					t.Fatalf("%s, workers %d, trial %d: RNG state diverged after the run", v.name, workers, trial)
				}
			}
		}
	}
}

// TestGreedySeedMatchesInsertionSorts: one sort per task picks the same
// masks as one insertion sort per node count.
func TestGreedySeedMatchesInsertionSorts(t *testing.T) {
	e := pace.NewEngine()
	rng := sim.NewRNG(31)
	var got schedule.Solution
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(t, rng, e, 30)
		if trial%3 == 0 {
			// Ties in availability must break by node index.
			for i := range p.Res.Avail {
				p.Res.Avail[i] = float64(rng.Intn(3))
			}
		}
		p.GreedySeed(&got)
		if want := refGreedySeed(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: GreedySeed %v, want %v", trial, got, want)
		}
	}
}

// TestGAPolicyMatchesReferenceAcrossQueueLengths drives one GAPolicy and
// the parent's policy through a queue that grows from 1 to 40 tasks and
// drains back, with tasks leaving from the head (started) and from the
// middle (deleted and forgotten). The policy's arenas, seeds, carry maps
// and builders are reused across very different lengths, so a stale tail
// anywhere would show in a plan.
func TestGAPolicyMatchesReferenceAcrossQueueLengths(t *testing.T) {
	e := pace.NewEngine()
	names := pace.CaseStudyLibrary().Names()
	cfg := ga.Config{PopulationSize: 16, MaxGenerations: 10, CrossoverRate: 0.8, MutationRate: 0.3, Elitism: 2, ConvergenceWindow: 4}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		got := NewGAPolicy(cfg, sim.NewRNG(77))
		want := &refGAPolicy{cfg: cfg, rng: sim.NewRNG(77)}
		rng := sim.NewRNG(5)
		pred := enginePredictor(e, pace.SunUltra10)
		res := schedule.NewResource(16)
		var queue []schedule.Task
		nextID, now := 1, 0.0
		step := func(label string) {
			now += rng.UniformIn(0, 3)
			for i := range res.Avail {
				res.Avail[i] = max(res.Avail[i], now) + rng.UniformIn(0, 2)
			}
			g := got.Plan(queue, res, now, pred)
			w := want.plan(queue, res, now, pred)
			if !reflect.DeepEqual(g.Items, w.Items) || !reflect.DeepEqual(g.NodeBusy, w.NodeBusy) ||
				g.Makespan != w.Makespan || g.Base != w.Base {
				t.Fatalf("workers %d, %s, queue %d: plan diverged\nrecycled  %+v\nreference %+v", workers, label, len(queue), g.Items, w.Items)
			}
			if *got.rng != *want.rng {
				t.Fatalf("workers %d, %s, queue %d: RNG state diverged", workers, label, len(queue))
			}
		}
		for len(queue) < 40 {
			queue = append(queue, schedule.Task{
				ID: nextID, App: appOf(t, names[rng.Intn(len(names))]),
				Arrival: now, Deadline: now + rng.UniformIn(50, 500),
			})
			nextID++
			step(fmt.Sprintf("arrival of task %d", nextID-1))
		}
		for len(queue) > 0 {
			i := 0 // the head started
			if rng.Bool(0.3) {
				i = rng.Intn(len(queue)) // a deletion
			}
			got.Forget(queue[i].ID)
			want.forget(queue[i].ID)
			queue = append(queue[:i], queue[i+1:]...)
			step(fmt.Sprintf("departure at %d", i))
		}
		if got.Stats().Plans != 79 {
			t.Fatalf("workers %d: %d GA plans, want 79", workers, got.Stats().Plans)
		}
	}
}
