package scheduler

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// fifoVariants are the two FIFO policies, which share everything but the
// allocation search.
var fifoVariants = []struct {
	name string
	mk   func() *FIFOPolicy
}{
	{"exhaustive", NewFIFOPolicy},
	{"fast", NewFastFIFOPolicy},
}

// planOnly hides a policy's append step: a Local given one replans the
// whole queue on every submit and promotes by the general path. It is the
// oracle the incremental path is held to.
type planOnly struct{ Policy }

// queued returns a 16-node fast-FIFO Local with depth sweep3d tasks
// waiting behind a running one, the engine warm, and a count of the
// predictor calls its planning makes.
func queued(t *testing.T, depth int) (l *Local, app *pace.AppModel, calls *int) {
	t.Helper()
	l = newTestLocal(t, "S1", NewFastFIFOPolicy(), 16)
	app = appOf(t, "sweep3d")
	calls = new(int)
	l.predict = func(a *pace.AppModel, k int) float64 {
		*calls++
		return l.duration(a, k)
	}
	for i := 0; i <= depth; i++ {
		if _, err := l.Submit(app, 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	if l.QueueLen() != depth {
		t.Fatalf("queue depth %d, want %d", l.QueueLen(), depth)
	}
	return l, app, calls
}

// A submit is planned against the kept busy vector: what it asks of the
// predictor and of the allocator does not depend on how much is waiting.
func TestSubmitCostIndependentOfQueueDepth(t *testing.T) {
	type cost struct {
		predicts int
		allocs   float64
	}
	measure := func(depth int) cost {
		l, app, calls := queued(t, depth)
		*calls = 0
		if _, err := l.Submit(app, 1e9, 0); err != nil {
			t.Fatal(err)
		}
		c := cost{predicts: *calls}
		c.allocs = testing.AllocsPerRun(100, func() {
			if _, err := l.Submit(app, 1e9, 0); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	shallow, deep := measure(1), measure(256)
	if shallow != deep {
		t.Fatalf("a submit costs %+v at depth 1 but %+v at depth 256", shallow, deep)
	}
	if limit := 2*16 + 2; deep.predicts > limit {
		t.Fatalf("%d predictor calls per submit on 16 nodes, want at most %d", deep.predicts, limit)
	}
	// Queue, plan, fixed-allocation map and records grow now and then;
	// averaged over the run that rounds to nothing.
	if deep.allocs > 1 {
		t.Fatalf("%v allocations per steady-state submit", deep.allocs)
	}
}

// Promotion pops the head of plan and queue; it does not copy, sort or
// re-index what stays behind.
func TestPromotionCostIndependentOfQueueDepth(t *testing.T) {
	measure := func(depth int) float64 {
		l, _, _ := queued(t, depth+60)
		return testing.AllocsPerRun(50, func() {
			before := l.QueueLen()
			l.AdvanceTo(l.NextPlannedStart())
			if l.QueueLen() >= before {
				t.Fatal("advance to the plan horizon promoted nothing")
			}
		})
	}
	shallow, deep := measure(16), measure(256)
	// The record and the executor's copy of it, amortised.
	if shallow != deep || deep > 2 {
		t.Fatalf("a promoting advance allocates %v times at depth 16, %v at depth 256", shallow, deep)
	}
}

// TestIncrementalPlanningEqualsFullReplan is the safety net under the
// append path: two Locals are fed the same random history — submits,
// clock advances, deletes, reservation holds, confirms, releases and
// expiries, real durations that miss their predictions, slowdown
// windows — one planning incrementally, the other
// (planOnly) replanning the whole queue every time. Whatever can be seen
// of them must agree exactly after every step.
func TestIncrementalPlanningEqualsFullReplan(t *testing.T) {
	const sequences, steps = 1000, 40
	apps := testLib(t).Models()
	for _, v := range fifoVariants {
		t.Run(v.name, func(t *testing.T) {
			for seq := 0; seq < sequences; seq++ {
				rng := sim.NewRNG(uint64(seq)*2 + 1)
				nodes := rng.IntIn(1, 6)
				cfg := Config{Name: "S1", HW: pace.SunUltra10, NumNodes: nodes}
				if rng.Bool(0.4) {
					// Every third task runs long or short; the rest run
					// exactly as predicted, so stretches of the history keep
					// the plan and others lose it.
					cfg.ActualDuration = func(_ *pace.AppModel, _ int, predicted float64, taskID int) float64 {
						if taskID%3 == 0 {
							return predicted * (0.5 + float64(taskID%7)/4)
						}
						return predicted
					}
				}
				var pair [2]*Local
				for i := range pair {
					cfg.Engine, cfg.Policy = pace.NewEngine(), Policy(v.mk())
					if i == 1 {
						cfg.Policy = planOnly{cfg.Policy}
					}
					l, err := NewLocal(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, has := l.cfg.Policy.(Appender); has == (i == 1) {
						t.Fatal("the oracle must be the one Local without an append step")
					}
					pair[i] = l
				}
				if rng.Bool(0.3) {
					lo := rng.UniformIn(0, 200)
					for _, l := range pair {
						l.SetSlowdown(func(start float64) float64 {
							if start >= lo && start < lo+80 {
								return 2.5
							}
							return 1
						})
					}
				}

				now := 0.0
				var holds []uint64
				for step := 0; step < steps; step++ {
					// both applies one operation to the two schedulers and
					// returns their answers for comparison.
					var op string
					both := func(name string, do func(l *Local) any) any {
						op = name
						a, b := do(pair[0]), do(pair[1])
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("seq %d step %d %s: answers differ: %v vs %v", seq, step, op, a, b)
						}
						return a
					}
					switch r := rng.Intn(18); {
					case r < 9:
						app, deadline := apps[rng.Intn(len(apps))], now+rng.UniformIn(10, 400)
						both("submit", func(l *Local) any {
							id, err := l.Submit(app, deadline, now)
							return fmt.Sprint(id, err)
						})
					case r < 13:
						now += rng.UniformIn(0, 60)
						both("advance", func(l *Local) any { l.AdvanceTo(now); return nil })
					case r < 14:
						if p := pair[0].Planned(); len(p) > 0 {
							id := p[rng.Intn(len(p))].TaskID
							both("delete", func(l *Local) any { return fmt.Sprint(l.Delete(id, now)) })
						}
					case r < 15:
						k, earliest, dur := rng.IntIn(1, nodes), now+rng.UniformIn(0, 100), rng.UniformIn(5, 60)
						id, ttl := uint64(seq*steps+step+1), rng.UniformIn(5, 80)
						held := both("hold", func(l *Local) any {
							q, err := l.QuoteReservation(k, earliest, dur, now)
							if err != nil {
								return err.Error()
							}
							if err := l.HoldReservation(id, "t", q.Mask, q.Start, q.End, now, ttl); err != nil {
								return err.Error()
							}
							return q
						})
						if _, ok := held.(ReserveQuote); ok {
							holds = append(holds, id)
						}
					case r < 17:
						if len(holds) > 0 {
							i := rng.Intn(len(holds))
							id := holds[i]
							if rng.Bool(0.5) {
								app := apps[rng.Intn(len(apps))]
								both("confirm", func(l *Local) any {
									tid, err := l.ConfirmReservation(id, 0, app, now)
									return fmt.Sprint(tid, err)
								})
							} else {
								holds = append(holds[:i], holds[i+1:]...)
								both("release", func(l *Local) any { return fmt.Sprint(l.ReleaseReservation(id, now)) })
							}
						}
					default:
						both("expire", func(l *Local) any { return l.ExpireReservations(now) })
					}
					if op == "" {
						continue
					}
					for _, view := range []struct {
						what string
						of   func(l *Local) any
					}{
						{"Planned", func(l *Local) any { return l.Planned() }},
						{"Records", func(l *Local) any { return l.Records() }},
						{"Freetime", func(l *Local) any { return l.Freetime() }},
						{"NextPlannedStart", func(l *Local) any { return l.NextPlannedStart() }},
					} {
						if a, b := view.of(pair[0]), view.of(pair[1]); !reflect.DeepEqual(a, b) {
							t.Fatalf("seq %d step %d after %s: %s differs\nincremental: %v\nfull replan: %v",
								seq, step, op, view.what, a, b)
						}
					}
				}
				ends := [2]float64{pair[0].Drain(), pair[1].Drain()}
				if ends[0] != ends[1] || !reflect.DeepEqual(pair[0].Records(), pair[1].Records()) {
					t.Fatalf("seq %d: drained to %v, records differ or makespans do", seq, ends)
				}
			}
		})
	}
}

// The full plan is the append step in a loop; this holds it to the
// schedule package's own sequential build of the same allocations.
func TestFIFOPlanEqualsBuildSequential(t *testing.T) {
	pred := enginePredictor(pace.NewEngine(), pace.SunUltra5)
	apps := testLib(t).Models()
	rng := sim.NewRNG(11)
	for _, v := range fifoVariants {
		tasks := make([]schedule.Task, 40)
		for i := range tasks {
			tasks[i] = schedule.Task{ID: i + 1, App: apps[rng.Intn(len(apps))], Arrival: float64(i / 4), Deadline: 1e9}
		}
		res := schedule.NewResource(6)
		res.Avail = []float64{3, 0, 8, 1, 0, 5}
		res.Booked = [][]schedule.Window{{{Start: 20, End: 45}}, nil, nil, {{Start: 30, End: 31}}, nil, nil}
		got := v.mk().Plan(tasks, res, 2, pred)
		sol := schedule.Solution{Order: make([]int, len(tasks)), Maps: make([]uint64, len(tasks))}
		for i, it := range got.Items {
			sol.Order[i], sol.Maps[i] = i, it.Mask
		}
		want := schedule.BuildSequential(sol, tasks, res, 2, pred)
		if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.NodeBusy, want.NodeBusy) || got.Makespan != want.Makespan {
			t.Fatalf("%s: Plan and BuildSequential disagree:\n%+v\n%+v", v.name, got, want)
		}
	}
}
