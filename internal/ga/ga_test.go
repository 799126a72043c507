package ga

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// oneMax is a classic GA sanity problem: maximise the number of set bits,
// expressed as minimising the number of clear bits.
type oneMax struct{ bits int }

func (p oneMax) sized(g *[]bool) []bool {
	*g = slices.Grow((*g)[:0], p.bits)[:p.bits]
	return *g
}

func (p oneMax) Random(dst *[]bool, rng *sim.RNG) {
	g := p.sized(dst)
	for i := range g {
		g[i] = rng.Bool(0.5)
	}
}

func (p oneMax) Crossover(dst1, dst2 *[]bool, a, b []bool, rng *sim.RNG) {
	cut := rng.Intn(p.bits)
	c, d := p.sized(dst1), p.sized(dst2)
	copy(c, a[:cut])
	copy(c[cut:], b[cut:])
	copy(d, b[:cut])
	copy(d[cut:], a[cut:])
}

func (p oneMax) Mutate(g *[]bool, rng *sim.RNG) {
	(*g)[rng.Intn(p.bits)] = !(*g)[rng.Intn(p.bits)]
}

func (p oneMax) Cost(g []bool) float64 {
	clear := 0
	for _, b := range g {
		if !b {
			clear++
		}
	}
	return float64(clear)
}

func (p oneMax) Copy(dst *[]bool, src []bool) { *dst = append((*dst)[:0], src...) }

func (p oneMax) Equal(a, b []bool) bool { return slices.Equal(a, b) }

// constCost is oneMax with every genome costing c.
type constCost struct {
	oneMax
	c float64
}

func (p constCost) Cost([]bool) float64 { return p.c }

// TestRunWithoutFiniteCost: when no genome ever has a finite cost, Best
// is the first genome of the initial population — an evaluated member,
// never the zero genome that elitism used to breed from (which panicked
// with "slice bounds out of range" in the crossover).
func TestRunWithoutFiniteCost(t *testing.T) {
	for _, c := range []float64{math.Inf(1), math.NaN()} {
		t.Run(fmt.Sprint(c), func(t *testing.T) {
			p := constCost{oneMax{bits: 16}, c}
			cfg := DefaultConfig()
			cfg.MaxGenerations = 20
			cfg.ConvergenceWindow = 0
			res := Run[[]bool](p, cfg, sim.NewRNG(12), nil)
			var first []bool
			p.Random(&first, sim.NewRNG(12))
			if !slices.Equal(res.Best, first) {
				t.Errorf("Best = %v, want the lowest-index initial genome %v", res.Best, first)
			}
			if !math.IsInf(res.BestCost, 1) || res.Generations != 20 || res.CostEvals != 20*cfg.PopulationSize {
				t.Errorf("BestCost %v after %d generations / %d evaluations", res.BestCost, res.Generations, res.CostEvals)
			}
		})
	}
}

// TestRunnerReuseMatchesOneShot runs problems of changing genome length
// on one Runner: every result must be what a fresh ga.Run returns, so
// nothing carries over in the arenas.
func TestRunnerReuseMatchesOneShot(t *testing.T) {
	var r Runner[[]bool]
	cfg := DefaultConfig()
	cfg.MaxGenerations = 15
	for i, bits := range []int{40, 8, 64, 3, 40} {
		cfg.PopulationSize = 10 + 7*i
		p := oneMax{bits: bits}
		want := Run[[]bool](p, cfg, sim.NewRNG(uint64(i)), nil)
		got := r.Run(p, cfg, sim.NewRNG(uint64(i)), nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d bits): reused runner %+v, one-shot %+v", i, bits, got, want)
		}
	}
}

func TestGASolvesOneMax(t *testing.T) {
	p := oneMax{bits: 32}
	cfg := DefaultConfig()
	cfg.MaxGenerations = 200
	cfg.ConvergenceWindow = 0
	res := Run[[]bool](p, cfg, sim.NewRNG(1), nil)
	if res.BestCost > 2 {
		t.Fatalf("GA left %v clear bits after %d generations", res.BestCost, res.Generations)
	}
}

func TestGABeatsRandomSearch(t *testing.T) {
	p := oneMax{bits: 64}
	rng := sim.NewRNG(2)
	cfg := DefaultConfig()
	cfg.MaxGenerations = 50
	cfg.ConvergenceWindow = 0
	res := Run[[]bool](p, cfg, rng, nil)

	// Random search with the same evaluation budget.
	randRng := sim.NewRNG(2)
	bestRandom := math.Inf(1)
	var g []bool
	for i := 0; i < res.CostEvals; i++ {
		p.Random(&g, randRng)
		if c := p.Cost(g); c < bestRandom {
			bestRandom = c
		}
	}
	if res.BestCost >= bestRandom {
		t.Fatalf("GA (%v) did not beat random search (%v) at equal budget %d", res.BestCost, bestRandom, res.CostEvals)
	}
}

func TestGADeterministicGivenSeed(t *testing.T) {
	p := oneMax{bits: 40}
	cfg := DefaultConfig()
	a := Run[[]bool](p, cfg, sim.NewRNG(7), nil)
	b := Run[[]bool](p, cfg, sim.NewRNG(7), nil)
	if a.BestCost != b.BestCost || a.Generations != b.Generations || a.CostEvals != b.CostEvals {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestGABestCostMonotoneNonIncreasing(t *testing.T) {
	p := oneMax{bits: 48}
	cfg := DefaultConfig()
	cfg.MaxGenerations = 80
	res := Run[[]bool](p, cfg, sim.NewRNG(3), nil)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best cost regressed at generation %d: %v", i, res.History)
		}
	}
	if res.History[len(res.History)-1] != res.BestCost {
		t.Fatalf("history end %v != BestCost %v", res.History[len(res.History)-1], res.BestCost)
	}
}

func TestGASeedsAreUsed(t *testing.T) {
	p := oneMax{bits: 64}
	perfect := make([]bool, 64)
	for i := range perfect {
		perfect[i] = true
	}
	cfg := DefaultConfig()
	cfg.MaxGenerations = 1 // no time to discover the optimum by search
	res := Run[[]bool](p, cfg, sim.NewRNG(4), [][]bool{perfect})
	if res.BestCost != 0 {
		t.Fatalf("seeded optimum lost: best cost %v", res.BestCost)
	}
}

func TestGASeedsAreCloned(t *testing.T) {
	p := oneMax{bits: 16}
	seed := make([]bool, 16)
	cfg := DefaultConfig()
	cfg.MaxGenerations = 30
	Run[[]bool](p, cfg, sim.NewRNG(5), [][]bool{seed})
	for i, b := range seed {
		if b {
			t.Fatalf("caller's seed mutated at bit %d", i)
		}
	}
}

func TestGAConvergenceWindowStopsEarly(t *testing.T) {
	p := oneMax{bits: 4} // trivially solved, then stalls
	cfg := DefaultConfig()
	cfg.MaxGenerations = 1000
	cfg.ConvergenceWindow = 5
	res := Run[[]bool](p, cfg, sim.NewRNG(6), nil)
	if res.Generations >= 1000 {
		t.Fatalf("convergence window did not stop the run (%d generations)", res.Generations)
	}
	if res.BestCost != 0 {
		t.Fatalf("4-bit one-max unsolved: %v", res.BestCost)
	}
}

func TestGAConfigSanitisation(t *testing.T) {
	p := oneMax{bits: 8}
	cfg := Config{
		PopulationSize: -5,
		MaxGenerations: 0,
		CrossoverRate:  7,
		MutationRate:   -1,
		Elitism:        100,
	}
	// Must not panic and must return a valid result.
	res := Run[[]bool](p, cfg, sim.NewRNG(8), nil)
	if res.Generations != 1 {
		t.Fatalf("sanitised MaxGenerations produced %d generations, want 1", res.Generations)
	}
	if math.IsInf(res.BestCost, 1) {
		t.Fatal("no genome evaluated")
	}
}

func TestScaleFitness(t *testing.T) {
	f := make([]float64, 3)
	scaleFitness(f, []float64{10, 20, 30})
	if f[0] != 1 || f[2] != 0 || f[1] != 0.5 {
		t.Fatalf("scaleFitness = %v, want [1 0.5 0]", f)
	}
	// Degenerate population: uniform fitness.
	scaleFitness(f, []float64{5, 5, 5})
	for _, v := range f {
		if v != 1 {
			t.Fatalf("degenerate scaleFitness = %v, want all 1", f)
		}
	}
}

func TestScaleFitnessBestIsHighest(t *testing.T) {
	costs := []float64{3, 9, 1, 7}
	f := make([]float64, len(costs))
	scaleFitness(f, costs)
	bestIdx, bestFit := 0, f[0]
	for i, v := range f {
		if v > bestFit {
			bestIdx, bestFit = i, v
		}
	}
	if bestIdx != 2 {
		t.Fatalf("lowest cost did not get highest fitness: costs=%v fitness=%v", costs, f)
	}
}

// selectPool runs stochastic remainder selection of n slots over a
// population with the given fitness and returns the mating pool.
func selectPool(fitness []float64, n int, rng *sim.RNG) []int {
	r := Runner[[]bool]{fitness: fitness}
	r.stochasticRemainder(n, rng)
	return r.pool
}

func TestStochasticRemainderProportionality(t *testing.T) {
	// Individual 0 has fitness 3, individual 1 has fitness 1: expect ~3x
	// more copies of 0 in the pool.
	rng := sim.NewRNG(9)
	count0 := 0
	const rounds = 500
	const n = 8
	for r := 0; r < rounds; r++ {
		pool := selectPool([]float64{3, 1}, n, rng)
		if len(pool) != n {
			t.Fatalf("pool size %d, want %d", len(pool), n)
		}
		for _, i := range pool {
			if i == 0 {
				count0++
			}
		}
	}
	frac := float64(count0) / float64(rounds*n)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("individual with 75%% fitness share received %.1f%% of pool slots", frac*100)
	}
}

func TestStochasticRemainderAllZeroFitness(t *testing.T) {
	pool := selectPool([]float64{0, 0}, 10, sim.NewRNG(10))
	if len(pool) != 10 {
		t.Fatalf("pool size %d, want 10", len(pool))
	}
}

// TestStochasticRemainderPoolIndexesPopulation: the mating pool names
// individuals by index (breeding reads them and writes the other arena),
// so every slot must be a valid index, the fitter individual's among them.
func TestStochasticRemainderPoolIndexesPopulation(t *testing.T) {
	pool := selectPool([]float64{0, 1, 0.25}, 30, sim.NewRNG(11))
	seen := map[int]int{}
	for _, i := range pool {
		if i < 0 || i > 2 {
			t.Fatalf("pool slot %d is not an index into a population of 3: %v", i, pool)
		}
		seen[i]++
	}
	if len(pool) != 30 || seen[1] < seen[2] || seen[0] != 0 {
		t.Fatalf("pool %v does not follow fitness [0 1 0.25]", pool)
	}
}

// TestFillFromBest drives the degenerate all-zero-fractions selection
// state directly: the Bernoulli trials on the fractional parts can never
// fire, the pool is underfilled, and the explicit fallback must fill the
// remaining slots from best-fitness order (deterministically, cycling).
func TestFillFromBest(t *testing.T) {
	fitness := []float64{0, 1, 0.5} // all fractional parts zero: trials cannot fill
	pool, _ := fillFromBest(nil, []int{7, 7, 7, 7}, fitness, 7)
	// Best-fitness order is individual 1, then 2, then 0, cycling.
	if want := []int{1, 2, 0, 1, 2, 0, 1}; !slices.Equal(pool, want) {
		t.Fatalf("pool = %v, want %v", pool, want)
	}
}

// TestFillFromBestTieBreaksByIndex pins the determinism of the fallback:
// equal fitness fills in index order.
func TestFillFromBestTieBreaksByIndex(t *testing.T) {
	pool, _ := fillFromBest(nil, nil, []float64{1, 1, 1}, 3)
	if want := []int{0, 1, 2}; !slices.Equal(pool, want) {
		t.Fatalf("pool = %v, want index-order fill %v", pool, want)
	}
}

// TestFillFromBestNoopWhenFull asserts a full pool passes through
// untouched.
func TestFillFromBestNoopWhenFull(t *testing.T) {
	out, _ := fillFromBest([]int{0, 0}, nil, []float64{1}, 2)
	if !slices.Equal(out, []int{0, 0}) {
		t.Fatal("fillFromBest modified an already-full pool")
	}
}
