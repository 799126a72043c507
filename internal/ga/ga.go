// Package ga implements the iterative heuristic kernel of the paper's
// local grid scheduler: a genetic algorithm with a fixed population size,
// stochastic remainder selection and dynamic fitness scaling (§2.1).
//
// The engine is generic over the genome type; the scheduling-specific
// two-part coding scheme, crossover and mutation operators live in
// internal/schedule.
package ga

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Problem defines a minimisation problem over genomes of type G. Cost is
// the f_c of the paper (eq. 8): lower is better. The engine converts costs
// to fitness values with the dynamic scaling of eq. 9.
//
// The operators write into genomes the engine owns, so a run recycles its
// population instead of allocating one per generation. A destination may
// be the zero genome or a genome an earlier call wrote, of any size: the
// operator resizes it, reusing its storage, and overwrites all of it. A
// destination never aliases a source.
type Problem[G any] interface {
	// Random makes dst a random genome.
	Random(dst *G, rng *sim.RNG)
	// Crossover combines two parents into two offspring written to dst1
	// and dst2. Implementations must not mutate the parents.
	Crossover(dst1, dst2 *G, a, b G, rng *sim.RNG)
	// Mutate mutates g in place.
	Mutate(g *G, rng *sim.RNG)
	// Cost evaluates the genome; lower is better. Cost must be pure (no
	// observable side effects on the problem or genome, and the same
	// result for equal genomes within a run) and safe for concurrent use
	// when Config.Workers > 1: the engine evaluates the population on a
	// worker pool. Purity also lets the engine skip calls: a child equal
	// to a parent takes the parent's cost, and an elite the best's.
	Cost(g G) float64
	// Copy makes dst an independent deep copy of src.
	Copy(dst *G, src G)
	// Equal reports whether a and b are the same genome. It must imply
	// Cost(a) == Cost(b), bit for bit (a false negative only costs a
	// Cost call), and be cheap next to Cost.
	Equal(a, b G) bool
}

// Config holds the GA hyper-parameters. The paper fixes the population at
// 50 (§2.2) but leaves rates unspecified; DefaultConfig supplies
// conventional values, all of which the ablation benches sweep.
type Config struct {
	PopulationSize    int     // fixed population size (paper: 50)
	MaxGenerations    int     // hard generation budget per scheduling event
	CrossoverRate     float64 // probability a selected pair recombines
	MutationRate      float64 // probability an offspring is mutated
	Elitism           int     // number of best genomes copied unchanged
	ConvergenceWindow int     // stop early after this many generations without improvement; 0 disables

	// Workers bounds the goroutines evaluating Cost over the population
	// each generation; values ≤ 1 evaluate sequentially. The run is
	// bit-identical for any worker count: costs are written by population
	// index, the per-generation best is chosen by an index-order scan
	// after the pool joins, and the RNG is only touched in the
	// single-threaded select/recombine phase. Requires a concurrency-safe
	// Problem.Cost (see Problem).
	Workers int
}

// DefaultConfig returns the configuration used by the case study.
func DefaultConfig() Config {
	return Config{
		PopulationSize:    50,
		MaxGenerations:    60,
		CrossoverRate:     0.8,
		MutationRate:      0.25,
		Elitism:           2,
		ConvergenceWindow: 12,
	}
}

func (c *Config) sanitize() {
	if c.PopulationSize < 2 {
		c.PopulationSize = 2
	}
	if c.MaxGenerations < 1 {
		c.MaxGenerations = 1
	}
	if c.CrossoverRate < 0 {
		c.CrossoverRate = 0
	}
	if c.CrossoverRate > 1 {
		c.CrossoverRate = 1
	}
	if c.MutationRate < 0 {
		c.MutationRate = 0
	}
	if c.MutationRate > 1 {
		c.MutationRate = 1
	}
	if c.Elitism < 0 {
		c.Elitism = 0
	}
	if c.Elitism >= c.PopulationSize {
		c.Elitism = c.PopulationSize - 1
	}
	if c.ConvergenceWindow < 0 {
		c.ConvergenceWindow = 0
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > c.PopulationSize {
		c.Workers = c.PopulationSize
	}
}

// Result reports the outcome of a GA run.
type Result[G any] struct {
	Best        G
	BestCost    float64
	Generations int       // generations actually executed
	CostEvals   int       // cost requests: the population size per generation
	Evaluations int       // Cost calls actually made; the rest were inherited
	History     []float64 // best cost after each generation
}

// Run evolves a population and returns the best genome found. seeds are
// injected into the initial population (copied first), which is how the
// scheduler carries the previous best schedule across scheduling events so
// the evolutionary process "absorbs system changes" (§1). Run is a
// one-shot Runner, so the result belongs to the caller.
func Run[G any](p Problem[G], cfg Config, rng *sim.RNG, seeds []G) Result[G] {
	var r Runner[G]
	return r.Run(p, cfg, rng, seeds)
}

// Runner is the GA engine with its working state kept between runs: two
// population arenas (the generation being evaluated and the one being
// bred), the best-so-far genome, and the cost, fitness, selection and
// history scratch. A scheduler that plans on every arrival keeps one
// Runner, so a run allocates nothing once the arenas have grown to the
// largest genomes seen. A Runner is not safe for concurrent use.
//
// A child's lineage is kept until it is scored: its parents are its
// slots of the mating pool, whose generation is still intact in the
// other arena, with their costs.
type Runner[G any] struct {
	pop, next   []G // population arenas, swapped after each generation
	best        G
	bestCost    float64   // best's scored cost: NaN if Best is a NaN-scored pop[0]
	costs, prev []float64 // pop's costs, and those of the generation it was bred from
	changed     []bool    // child i is not a verbatim copy of its parent pool[i]
	todo        []int     // indices of pop whose cost is unknown
	fitness     []float64
	frac        []float64 // fractional expected counts (stochastic remainder)
	pool        []int     // the mating pool, as indices into pop
	order       []int     // fillFromBest's fitness order
	history     []float64
}

// Run is ga.Run on the runner's arenas: the same random draws in the same
// order and the same result, bit for bit. The returned Best and History
// alias the runner and stay valid until its next Run; seeds must not
// alias them.
func (r *Runner[G]) Run(p Problem[G], cfg Config, rng *sim.RNG, seeds []G) Result[G] {
	cfg.sanitize()
	n := cfg.PopulationSize
	r.pop, r.next = resize(r.pop, n), resize(r.next, n)
	r.costs, r.prev, r.fitness = resize(r.costs, n), resize(r.prev, n), resize(r.fitness, n)
	r.changed, r.todo = resize(r.changed, n), resize(r.todo, n)
	r.history = r.history[:0]

	for i := range r.pop {
		if i < len(seeds) {
			p.Copy(&r.pop[i], seeds[i])
		} else {
			p.Random(&r.pop[i], rng)
		}
	}

	res := Result[G]{BestCost: math.Inf(1)}
	stale := 0
	for gen := 0; gen < cfg.MaxGenerations; gen++ {
		// Score the population: a child that equals a parent inherits its
		// cost, the rest are evaluated. With Workers > 1 the Cost calls
		// run on a bounded pool, each result written to its own index; the
		// best is then chosen by a sequential index-order scan, so the
		// outcome is bit-identical to the sequential engine.
		r.todo = r.todo[:0]
		if gen == 0 {
			for i := range r.pop {
				r.todo = append(r.todo, i)
			}
		} else {
			r.costs, r.prev = r.prev, r.costs
			r.inherit(p, cfg.Elitism)
		}
		r.evaluate(p, cfg.Workers)
		res.CostEvals += n
		res.Evaluations += len(r.todo)
		genBest, genBestCost := -1, math.Inf(1)
		for i, c := range r.costs {
			if c < genBestCost {
				genBest, genBestCost = i, c
			}
		}
		if genBestCost < res.BestCost {
			p.Copy(&r.best, r.pop[genBest])
			res.BestCost, r.bestCost = genBestCost, genBestCost
			stale = 0
		} else {
			if gen == 0 {
				// No finite cost: Best is still a genome of the population
				// (the lowest index), never the zero genome elitism would
				// otherwise breed from. Its elites inherit its own cost,
				// which may be NaN where BestCost is +Inf.
				p.Copy(&r.best, r.pop[0])
				r.bestCost = r.costs[0]
			}
			stale++
		}
		res.Generations = gen + 1
		r.history = append(r.history, res.BestCost)
		if cfg.ConvergenceWindow > 0 && stale >= cfg.ConvergenceWindow {
			break
		}
		if gen == cfg.MaxGenerations-1 {
			break
		}

		// Select a mating pool via stochastic remainder selection over the
		// dynamically scaled fitness (eq. 9).
		scaleFitness(r.fitness, r.costs)
		r.stochasticRemainder(n, rng)

		// Breed into the other arena. The pool holds indices into pop, and
		// shuffling them makes the same draws as shuffling the genomes.
		pool := r.pool
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for i := 0; i+1 < len(pool); i += 2 {
			a, b := r.pop[pool[i]], r.pop[pool[i+1]]
			crossed := rng.Bool(cfg.CrossoverRate)
			if crossed {
				p.Crossover(&r.next[i], &r.next[i+1], a, b, rng)
			} else {
				p.Copy(&r.next[i], a)
				p.Copy(&r.next[i+1], b)
			}
			r.changed[i], r.changed[i+1] = crossed, crossed
		}
		if last := len(pool) - 1; len(pool)%2 == 1 {
			p.Copy(&r.next[last], r.pop[pool[last]])
			r.changed[last] = false
		}
		for i := range r.next {
			if rng.Bool(cfg.MutationRate) {
				p.Mutate(&r.next[i], rng)
				r.changed[i] = true
			}
		}

		// Elitism: the best genome so far always survives, in the first
		// Elitism slots.
		for i := 0; i < cfg.Elitism; i++ {
			p.Copy(&r.next[i], r.best)
		}
		r.pop, r.next = r.next, r.pop
	}
	res.Best, res.History = r.best, r.history
	return res
}

// resize returns s with length n, keeping the elements (and so the
// storage of the genomes) it holds up to its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// inherit fills in the cost of every child of the previous generation
// (now in r.next, its costs in r.prev) that is known without a Cost call,
// and lists the rest in r.todo. An elite takes the scored cost of Best; a
// verbatim copy, its parent's; a crossover or mutated child that equals
// one of its two parents (pool[i] and, in a pair, pool[i^1]), that
// parent's. Cost is pure, so every inherited cost is the one a call
// would return.
func (r *Runner[G]) inherit(p Problem[G], elitism int) {
	paired := len(r.pool) &^ 1
	for i, g := range r.pop {
		a := r.pool[i]
		switch {
		case i < elitism:
			r.costs[i] = r.bestCost
		case !r.changed[i] || p.Equal(g, r.next[a]):
			r.costs[i] = r.prev[a]
		case i < paired && r.pool[i^1] != a && p.Equal(g, r.next[r.pool[i^1]]):
			r.costs[i] = r.prev[r.pool[i^1]]
		default:
			r.todo = append(r.todo, i)
		}
	}
}

// evaluate sets costs[i] = p.Cost(pop[i]) for every i in r.todo. With
// workers > 1 the calls are distributed over a bounded pool via an atomic
// index counter; each worker writes only its claimed indices, so no
// result depends on scheduling order. Cost must be pure, which the
// scheduling Problem guarantees (per-goroutine scratch builders over an
// immutable problem instance), so the cost vector is identical for any
// worker count.
func (r *Runner[G]) evaluate(p Problem[G], workers int) {
	todo, pop, costs := r.todo, r.pop, r.costs
	if workers <= 1 || len(todo) < 2 {
		for _, i := range todo {
			costs[i] = p.Cost(pop[i])
		}
		return
	}
	workers = min(workers, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				costs[todo[k]] = p.Cost(pop[todo[k]])
			}
		}()
	}
	wg.Wait()
}

// scaleFitness writes to fitness the paper's dynamic scaling (eq. 9) of
// costs:
//
//	f_v = (fc_max − fc_k) / (fc_max − fc_min)
//
// so the worst genome in the current population has fitness 0 and the best
// has fitness 1. A degenerate population (all equal costs) gets uniform
// fitness 1.
func scaleFitness(fitness, costs []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi == lo {
		for i := range fitness {
			fitness[i] = 1
		}
		return
	}
	span := hi - lo
	for i, c := range costs {
		fitness[i] = (hi - c) / span
	}
}

// stochasticRemainder fills the mating pool with n indices into the
// population whose fitness is r.fitness. Each individual first receives
// floor(e_k) deterministic copies, where e_k is its expected count
// f_k·n/Σf; remaining slots are filled by Bernoulli trials on the
// fractional parts (stochastic remainder selection without replacement).
func (r *Runner[G]) stochasticRemainder(n int, rng *sim.RNG) {
	size := len(r.fitness)
	total := 0.0
	for _, f := range r.fitness {
		total += f
	}
	r.pool = r.pool[:0]
	if total <= 0 {
		// All fitness zero: select uniformly.
		for len(r.pool) < n {
			r.pool = append(r.pool, rng.Intn(size))
		}
		return
	}

	r.frac = resize(r.frac, size)
	for i, f := range r.fitness {
		expected := f / total * float64(n)
		whole := math.Floor(expected)
		r.frac[i] = expected - whole
		for c := 0; c < int(whole) && len(r.pool) < n; c++ {
			r.pool = append(r.pool, i)
		}
	}
	// Fill the remainder by cycling Bernoulli trials on the fractional
	// parts. The attempts are bounded: when the fractional parts are
	// degenerate (all ~0, e.g. every expected count integral after
	// rounding) the trials cannot fill the pool, and the remaining slots
	// are then filled explicitly in best-fitness order — not, as a naive
	// guard would, with uniformly random individuals that ignore fitness.
	for guard := 0; guard < 16*n && len(r.pool) < n; guard++ {
		i := rng.Intn(size)
		if rng.Bool(r.frac[i]) {
			r.pool = append(r.pool, i)
		}
	}
	r.pool, r.order = fillFromBest(r.pool, r.order, r.fitness, n)
}

// fillFromBest tops the mating pool up to n indices by cycling through the
// population in descending fitness order (ties broken by index, so the
// fill is deterministic); order is its scratch, returned for reuse. It is
// the explicit fallback for degenerate selection states where Bernoulli
// trials on the fractional parts cannot terminate.
func fillFromBest(pool, order []int, fitness []float64, n int) ([]int, []int) {
	if len(pool) >= n {
		return pool, order
	}
	order = order[:0]
	for i := range fitness {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case fitness[a] > fitness[b]:
			return -1
		case fitness[b] > fitness[a]:
			return 1
		}
		return 0
	})
	for k := 0; len(pool) < n; k++ {
		pool = append(pool, order[k%len(order)])
	}
	return pool, order
}
