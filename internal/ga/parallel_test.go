package ga

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// caseStudyProblem builds the 20-task scheduling problem used by the
// hot-path benches: the seven Table 1 applications cycled over a 16-node
// resource, predictions served by a shared (warm) evaluation engine.
func caseStudyProblem(t *testing.T, engine *pace.Engine) *schedule.Problem {
	t.Helper()
	lib := pace.CaseStudyLibrary()
	names := lib.Names()
	tasks := make([]schedule.Task, 20)
	for i := range tasks {
		m, ok := lib.Lookup(names[i%len(names)])
		if !ok {
			t.Fatalf("missing model %q", names[i%len(names)])
		}
		tasks[i] = schedule.Task{ID: i + 1, App: m, Deadline: 500}
	}
	pred := func(app *pace.AppModel, k int) float64 {
		return engine.MustPredict(app, pace.SunUltra5, k)
	}
	return schedule.NewProblem(tasks, schedule.NewResource(16), 0, pred)
}

// TestRunDeterministicAcrossWorkers asserts the tentpole's determinism
// contract: Run with Workers 1, 4 and 16 produces bit-identical Best,
// BestCost and History on the case-study problem. CI runs this under
// -race, which also checks the worker pool for data races.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	engine := pace.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxGenerations = 20
	cfg.ConvergenceWindow = 0

	type outcome struct {
		best    schedule.Solution
		cost    float64
		history []float64
		evals   int
	}
	run := func(workers int) outcome {
		p := caseStudyProblem(t, engine)
		c := cfg
		c.Workers = workers
		var greedy schedule.Solution
		p.GreedySeed(&greedy)
		res := Run[schedule.Solution](p, c, sim.NewRNG(42), []schedule.Solution{greedy})
		return outcome{best: res.Best, cost: res.BestCost, history: res.History, evals: res.CostEvals}
	}

	ref := run(1)
	if math.IsInf(ref.cost, 1) {
		t.Fatal("sequential run found no solution")
	}
	for _, workers := range []int{4, 16} {
		got := run(workers)
		if got.cost != ref.cost {
			t.Errorf("Workers=%d: BestCost = %v, want %v", workers, got.cost, ref.cost)
		}
		if !reflect.DeepEqual(got.best, ref.best) {
			t.Errorf("Workers=%d: Best diverged from sequential run", workers)
		}
		if !reflect.DeepEqual(got.history, ref.history) {
			t.Errorf("Workers=%d: History = %v, want %v", workers, got.history, ref.history)
		}
		if got.evals != ref.evals {
			t.Errorf("Workers=%d: CostEvals = %d, want %d", workers, got.evals, ref.evals)
		}
	}
}

// countingProblem counts the Cost calls that reach the wrapped problem.
type countingProblem struct {
	*schedule.Problem
	calls *atomic.Int64
}

func (c countingProblem) Cost(g schedule.Solution) float64 {
	c.calls.Add(1)
	return c.Problem.Cost(g)
}

// TestEvaluationsCountCostCalls: Result.Evaluations is the number of Cost
// calls the run made, the same at widths 1, 4 and 16, and fewer than the
// cost requests (CostEvals), because elites, verbatim copies and children
// equal to a parent inherit a known cost.
func TestEvaluationsCountCostCalls(t *testing.T) {
	engine := pace.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxGenerations = 20
	cfg.ConvergenceWindow = 0
	evals := -1
	for _, workers := range []int{1, 4, 16} {
		var calls atomic.Int64
		p := countingProblem{caseStudyProblem(t, engine), &calls}
		var greedy schedule.Solution
		p.GreedySeed(&greedy)
		c := cfg
		c.Workers = workers
		res := Run[schedule.Solution](p, c, sim.NewRNG(42), []schedule.Solution{greedy})
		if int(calls.Load()) != res.Evaluations {
			t.Errorf("Workers=%d: %d Cost calls, Evaluations = %d", workers, calls.Load(), res.Evaluations)
		}
		if res.Evaluations >= res.CostEvals || res.CostEvals != cfg.MaxGenerations*cfg.PopulationSize {
			t.Errorf("Workers=%d: Evaluations %d, CostEvals %d", workers, res.Evaluations, res.CostEvals)
		}
		if evals >= 0 && res.Evaluations != evals {
			t.Errorf("Workers=%d: Evaluations = %d, want %d as at width 1", workers, res.Evaluations, evals)
		}
		evals = res.Evaluations
	}
}

// TestSanitizeWorkers checks the Workers clamps: non-positive values run
// sequentially and the pool never exceeds the population.
func TestSanitizeWorkers(t *testing.T) {
	c := Config{PopulationSize: 8, MaxGenerations: 1, Workers: -3}
	c.sanitize()
	if c.Workers != 1 {
		t.Fatalf("Workers = %d after sanitize, want 1", c.Workers)
	}
	c = Config{PopulationSize: 8, MaxGenerations: 1, Workers: 64}
	c.sanitize()
	if c.Workers != 8 {
		t.Fatalf("Workers = %d after sanitize, want population size 8", c.Workers)
	}
}
