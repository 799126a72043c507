package schedule

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pace"
	"repro/internal/sim"
)

// refCost is eq. 8 as a scan of the placement list once per node, the
// evaluation the gap record replaced. It is kept as the oracle that
// Builder.breakdown must match bit for bit.
func refCost(s *Schedule, tasks []Task, w CostWeights, frontWeighted bool) CostBreakdown {
	var out CostBreakdown
	out.Makespan = s.Makespan - s.Base
	if out.Makespan < 0 {
		out.Makespan = 0
	}

	// Node-major, items in placement order: O(nodes × items).
	n := len(s.NodeBusy)
	horizon := s.Makespan - s.Base
	var idleW, idleRaw float64
	for i := 0; i < n; i++ {
		// Items are appended in execution order; on a single node their
		// intervals are non-overlapping and start-sorted because each
		// placement pushes the node's availability forward.
		bit := uint64(1) << uint(i)
		var booked []Window
		if s.Booked != nil && i < len(s.Booked) {
			booked = s.Booked[i]
		}
		cursor := s.Base
		for _, it := range s.Items {
			if it.Mask&bit == 0 {
				continue
			}
			if it.Start > cursor {
				r, w := gapCost(cursor, it.Start, booked, s.Base, horizon, frontWeighted)
				idleRaw += r
				idleW += w
			}
			if it.End > cursor {
				cursor = it.End
			}
		}
		if s.Makespan > cursor {
			r, w := gapCost(cursor, s.Makespan, booked, s.Base, horizon, frontWeighted)
			idleRaw += r
			idleW += w
		}
	}
	if n > 0 {
		out.Idle = idleW / float64(n)
		out.IdleRaw = idleRaw / float64(n)
	}

	for _, it := range s.Items {
		if d := tasks[it.TaskPos].Deadline; it.End > d {
			out.ContractPen += it.End - d
		}
	}

	den := w.Makespan + w.Idle + w.Deadline
	if den <= 0 {
		den = 1
	}
	out.Combined = (w.Makespan*out.Makespan + w.Idle*out.Idle + w.Deadline*out.ContractPen) / den
	return out
}

// costInstance is a random problem instance for the oracle tests: 1–64
// nodes, committed availability below and above the scheduling instant,
// arrivals before and after it, booked windows on some nodes, durations
// that differ per application (some zero) and random weights.
type costInstance struct {
	tasks   []Task
	res     Resource
	base    float64
	predict Predictor
	weights CostWeights
	front   bool
}

func randomCostInstance(rng *sim.RNG) costInstance {
	nodes := rng.IntIn(1, 64)
	base := rng.UniformIn(0, 50)
	res := NewResource(nodes)
	for i := range res.Avail {
		res.Avail[i] = base + rng.UniformIn(-20, 40)
	}
	if rng.Intn(2) == 0 {
		res.Booked = make([][]Window, nodes)
		for i := range res.Booked {
			at := base + rng.UniformIn(-30, 10)
			for w := rng.Intn(4); w > 0; w-- {
				at += rng.UniformIn(0, 30)
				end := at + rng.UniformIn(0, 25) // some zero-width
				if rng.Intn(5) == 0 {
					end = at
				}
				res.Booked[i] = append(res.Booked[i], Window{Start: at, End: end})
				at = end
			}
		}
	}
	apps := make([]*pace.AppModel, 4)
	work := map[*pace.AppModel]float64{}
	for i := range apps {
		apps[i] = &pace.AppModel{Name: fmt.Sprintf("app%d", i)}
		work[apps[i]] = rng.UniformIn(0, 120)
	}
	work[apps[0]] = 0 // zero-length tasks close no gap
	tasks := make([]Task, rng.IntIn(1, 24))
	for i := range tasks {
		tasks[i] = Task{
			ID: i + 1, App: apps[rng.Intn(len(apps))],
			Arrival:  base + rng.UniformIn(-20, 30),
			Deadline: base + rng.UniformIn(0, 200),
		}
	}
	predict := func(app *pace.AppModel, k int) float64 {
		return work[app]/float64(k) + float64(k)*0.25
	}
	w := CostWeights{Makespan: float64(rng.Intn(3)), Idle: float64(rng.Intn(4)), Deadline: float64(rng.Intn(3))}
	return costInstance{tasks, res, base, predict, w, rng.Intn(2) == 0}
}

// TestBreakdownMatchesScanOracle holds eq. 8 evaluated from the gap
// record to the per-node scan of the placement list: every term must be
// equal, not merely close, since the GA ranks genomes on them.
func TestBreakdownMatchesScanOracle(t *testing.T) {
	rng := sim.NewRNG(43)
	for trial := 0; trial < 300; trial++ {
		in := randomCostInstance(rng)
		b, err := NewBuilder(in.tasks, in.res, in.predict)
		if err != nil {
			t.Fatal(err)
		}
		b.sequential = trial%3 == 0
		p := NewProblem(in.tasks, in.res, in.base, in.predict)
		p.Weights, p.FrontWeighted = in.weights, in.front
		for k := 0; k < 8; k++ {
			sol := NewRandomSolution(len(in.tasks), in.res.NumNodes, rng)
			s := b.Build(sol, in.base)
			want := refCost(s, in.tasks, in.weights, in.front)
			if got := b.breakdown(in.weights, in.front); got != want {
				t.Fatalf("trial %d (%d nodes, sequential %v, front %v, booked %v): breakdown %+v, scan %+v",
					trial, in.res.NumNodes, b.sequential, in.front, in.res.Booked != nil, got, want)
			}
			if b.sequential {
				continue
			}
			if got := p.Breakdown(sol); got != want {
				t.Fatalf("trial %d: Problem.Breakdown %+v, scan %+v", trial, got, want)
			}
			if got := p.Cost(sol); got != want.Combined {
				t.Fatalf("trial %d: Problem.Cost %v, scan %v", trial, got, want.Combined)
			}
		}
	}
}

// TestTableBuildMatchesPredictorBuild holds a build fed from the duration
// table to one that asks the predictor per placement, and counts the
// questions each asks: a Problem one per (task, k) cell of the instance
// however many builds read it, the one-shot build one per task.
func TestTableBuildMatchesPredictorBuild(t *testing.T) {
	rng := sim.NewRNG(44)
	for trial := 0; trial < 200; trial++ {
		in := randomCostInstance(rng)
		counted := func(calls *int) Predictor {
			return func(app *pace.AppModel, k int) float64 {
				*calls++
				return in.predict(app, k)
			}
		}
		var problemCalls int
		p := NewProblem(in.tasks, in.res, in.base, counted(&problemCalls))
		var seed Solution
		p.GreedySeed(&seed)
		cells := len(in.tasks) * in.res.NumNodes
		b, err := NewBuilder(in.tasks, in.res, in.predict)
		if err != nil {
			t.Fatal(err)
		}
		b.sequential = true
		for k := 0; k < 6; k++ {
			sol := seed
			if k > 0 {
				sol = NewRandomSolution(len(in.tasks), in.res.NumNodes, rng)
			}
			p.Cost(sol)
			got := p.Build(sol)
			var oneShotCalls int
			want := Build(sol, in.tasks, in.res, in.base, counted(&oneShotCalls))
			if oneShotCalls != len(in.tasks) {
				t.Fatalf("trial %d: one-shot build asked %d predictions for %d tasks", trial, oneShotCalls, len(in.tasks))
			}
			if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.NodeBusy, want.NodeBusy) ||
				got.Makespan != want.Makespan || got.Base != want.Base {
				t.Fatalf("trial %d: table build\n%+v\nwant\n%+v", trial, got, want)
			}
			seqWant := BuildSequential(sol, in.tasks, in.res, in.base, in.predict)
			if seq := b.Build(sol, in.base); !reflect.DeepEqual(seq.Items, seqWant.Items) || seq.Makespan != seqWant.Makespan {
				t.Fatalf("trial %d: sequential table build\n%+v\nwant\n%+v", trial, seq.Items, seqWant.Items)
			}
		}
		if problemCalls != cells {
			t.Fatalf("trial %d: the problem asked %d predictions for a %d-cell table", trial, problemCalls, cells)
		}
	}
}
