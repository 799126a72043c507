package ga

import (
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

// countingProblem counts the Cost calls that reach the wrapped problem.
type countingProblem struct {
	*schedule.Problem
	calls *int
}

func (c countingProblem) Cost(g schedule.Solution) float64 {
	*c.calls++
	return c.Problem.Cost(g)
}

// TestEvaluationsCountCostCalls: Result.Evaluations is the number of Cost
// calls the run made, and fewer than the cost requests (CostEvals),
// because elites, verbatim copies and children equal to a parent inherit
// a known cost.
func TestEvaluationsCountCostCalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxGenerations = 20
	cfg.ConvergenceWindow = 0
	calls := 0
	p := countingProblem{caseStudyProblem(t, pace.NewEngine()), &calls}
	var greedy schedule.Solution
	p.GreedySeed(&greedy)
	res := Run[schedule.Solution](p, cfg, sim.NewRNG(42), []schedule.Solution{greedy})
	if calls != res.Evaluations {
		t.Errorf("%d Cost calls, Evaluations = %d", calls, res.Evaluations)
	}
	if res.Evaluations >= res.CostEvals || res.CostEvals != cfg.MaxGenerations*cfg.PopulationSize {
		t.Errorf("Evaluations %d, CostEvals %d", res.Evaluations, res.CostEvals)
	}
}
