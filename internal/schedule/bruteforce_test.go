package schedule

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/pace"
	"repro/internal/sim"
)

// bruteForceBest enumerates EVERY legitimate solution of a tiny instance
// (all task permutations × all non-empty node subsets per task) and
// returns the minimal combined cost. It is the ground truth the heuristics
// are verified against.
func bruteForceBest(p *Problem) float64 {
	n := len(p.Tasks)
	nodes := p.Res.NumNodes
	best := math.Inf(1)

	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	maps := make([]uint64, n)

	var tryMaps func(pos int)
	var tryPerms func(k int)

	evaluate := func() {
		sol := Solution{Order: append([]int(nil), perm...), Maps: append([]uint64(nil), maps...)}
		if c := p.Cost(sol); c < best {
			best = c
		}
	}
	tryMaps = func(pos int) {
		if pos == n {
			evaluate()
			return
		}
		total := uint64(1) << uint(nodes)
		for m := uint64(1); m < total; m++ {
			maps[pos] = m
			tryMaps(pos + 1)
		}
	}
	tryPerms = func(k int) {
		if k == n {
			tryMaps(0)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			tryPerms(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	tryPerms(0)
	return best
}

func bruteProblem(t *testing.T, appNames []string, nodes int, deadline float64) *Problem {
	t.Helper()
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	tasks := make([]Task, len(appNames))
	for i, name := range appNames {
		m, ok := lib.Lookup(name)
		if !ok {
			t.Fatalf("no model %s", name)
		}
		tasks[i] = Task{ID: i + 1, App: m, Deadline: deadline}
	}
	pred := func(app *pace.AppModel, k int) float64 {
		return engine.MustPredict(app, pace.SGIOrigin2000, k)
	}
	return NewProblem(tasks, NewResource(nodes), 0, pred)
}

// TestGreedySeedNearBruteForceOptimum pins the greedy heuristic against
// ground truth on instances small enough to enumerate completely
// (3 tasks × 3 nodes = 6 × 7³ = 2058 solutions).
func TestGreedySeedNearBruteForceOptimum(t *testing.T) {
	p := bruteProblem(t, []string{"fft", "closure", "memsort"}, 3, 1000)
	optimal := bruteForceBest(p)
	var seed Solution
	p.GreedySeed(&seed)
	greedy := p.Cost(seed)
	if greedy < optimal-1e-9 {
		t.Fatalf("greedy (%v) beat the enumerated optimum (%v): enumeration is broken", greedy, optimal)
	}
	// Greedy is only a seed — it over-allocates nodes per task — but it
	// must stay within small factors of the optimum on a tiny instance.
	if greedy > optimal*2.5 {
		t.Fatalf("greedy cost %v vs optimal %v", greedy, optimal)
	}
}

// TestLocalSearchReachesBruteForceOptimum verifies the mutation
// neighbourhood can actually reach the global optimum: a long random
// descent over the full solution space must land on it.
func TestLocalSearchReachesBruteForceOptimum(t *testing.T) {
	p := bruteProblem(t, []string{"fft", "closure"}, 3, 1000)
	optimal := bruteForceBest(p)

	rng := sim.NewRNG(5)
	best := math.Inf(1)
	var cur, cand Solution
	p.GreedySeed(&cur)
	curCost := p.Cost(cur)
	for i := 0; i < 4000; i++ {
		p.Copy(&cand, cur)
		p.Mutate(&cand, rng)
		c := p.Cost(cand)
		// Accept sideways and downhill moves so plateaus are crossable.
		if c <= curCost {
			cur, cand, curCost = cand, cur, c
		}
		if c < best {
			best = c
		}
		if i%500 == 499 { // occasional restart
			p.Random(&cur, rng)
			curCost = p.Cost(cur)
		}
	}
	if best > optimal+1e-9 {
		t.Fatalf("local search best %v never reached enumerated optimum %v", best, optimal)
	}
}

// TestBruteForceConfirmsFIFOAllocationOptimality cross-checks the FIFO
// baseline's claim: for a single task on an idle resource, the completion
// time of the best allocation equals the brute-force best completion over
// all subsets.
func TestBruteForceConfirmsFIFOAllocationOptimality(t *testing.T) {
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	pred := func(app *pace.AppModel, k int) float64 {
		return engine.MustPredict(app, pace.SGIOrigin2000, k)
	}
	rng := sim.NewRNG(8)
	for _, name := range pace.CaseStudyAppNames {
		m, _ := lib.Lookup(name)
		busy := make([]float64, 6)
		for i := range busy {
			busy[i] = float64(rng.Intn(20))
		}
		// Brute force over every subset.
		bestEnd := math.Inf(1)
		for mask := uint64(1); mask < 1<<6; mask++ {
			start := 0.0
			for mm := mask; mm != 0; mm &= mm - 1 {
				if a := busy[bits.TrailingZeros64(mm)]; a > start {
					start = a
				}
			}
			if end := start + pred(m, bits.OnesCount64(mask)); end < bestEnd {
				bestEnd = end
			}
		}
		// The production paths must match it exactly; their tie-break and
		// search structure are verified elsewhere.
		sol := Solution{Order: []int{0}, Maps: []uint64{0}}
		_ = sol
		tasks := []Task{{ID: 1, App: m, Deadline: 1e9}}
		res := Resource{NumNodes: 6, Avail: busy}
		p := NewProblem(tasks, res, 0, pred)
		bf := bruteForceBestCompletion(p)
		if math.Abs(bf-bestEnd) > 1e-9 {
			t.Fatalf("%s: single-task enumerations disagree: %v vs %v", name, bf, bestEnd)
		}
	}
}

// bruteForceBestCompletion enumerates single-task allocations via the
// schedule builder, returning the minimal completion time.
func bruteForceBestCompletion(p *Problem) float64 {
	best := math.Inf(1)
	total := uint64(1) << uint(p.Res.NumNodes)
	for mask := uint64(1); mask < total; mask++ {
		sol := Solution{Order: []int{0}, Maps: []uint64{mask}}
		s := Build(sol, p.Tasks, p.Res, p.Base, p.Predict)
		if end := s.Items[0].End; end < best {
			best = end
		}
	}
	return best
}

func TestBuildSequentialEnforcesQueueOrder(t *testing.T) {
	// Two tasks on disjoint nodes: plain Build lets the second start at 0;
	// sequential Build holds it behind the first task's start.
	tasks := []Task{
		{ID: 1, Arrival: 5, Deadline: 1e9}, // head of queue, can't start before 5
		{ID: 2, Arrival: 0, Deadline: 1e9},
	}
	res := NewResource(2)
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{0b01, 0b10}}
	pred := func(*pace.AppModel, int) float64 { return 10 }

	plain := Build(sol, tasks, res, 0, pred)
	if plain.Items[1].Start != 0 {
		t.Fatalf("plain Build blocked an independent task: %+v", plain.Items[1])
	}
	seq := BuildSequential(sol, tasks, res, 0, pred)
	if seq.Items[0].Start != 5 {
		t.Fatalf("head start %v, want 5", seq.Items[0].Start)
	}
	if seq.Items[1].Start != 5 {
		t.Fatalf("sequential Build let task 2 start at %v before the head's start 5", seq.Items[1].Start)
	}
}

func TestBuildSequentialStartsNonDecreasing(t *testing.T) {
	rng := sim.NewRNG(11)
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	pred := func(app *pace.AppModel, k int) float64 {
		return engine.MustPredict(app, pace.SunUltra5, k)
	}
	names := lib.Names()
	for trial := 0; trial < 50; trial++ {
		n := rng.IntIn(1, 8)
		tasks := make([]Task, n)
		for i := range tasks {
			m, _ := lib.Lookup(names[rng.Intn(len(names))])
			tasks[i] = Task{ID: i + 1, App: m, Arrival: float64(rng.Intn(30)), Deadline: 1e9}
		}
		sol := NewRandomSolution(n, 6, rng)
		s := BuildSequential(sol, tasks, NewResource(6), 0, pred)
		prev := math.Inf(-1)
		for i, it := range s.Items {
			if it.Start < prev-1e-9 {
				t.Fatalf("trial %d: start order violated at item %d: %+v", trial, i, s.Items)
			}
			prev = it.Start
		}
	}
}
