package schedule

import (
	"fmt"
	"math/bits"
	"slices"
)

// Placed records one task's slot in a built schedule: the allocated node
// set ρ_j, the unison start time τ_j and the completion time η_j = τ_j +
// t_x(ρ_j, σ_j) (eq. 6).
type Placed struct {
	TaskPos int // position of the task in the task slice
	Mask    uint64
	Start   float64
	End     float64
}

// Nodes returns the allocated node indices in ascending order.
func (p Placed) Nodes() []int {
	out := make([]int, 0, bits.OnesCount64(p.Mask))
	for m := p.Mask; m != 0; {
		i := bits.TrailingZeros64(m)
		out = append(out, i)
		m &= m - 1
	}
	return out
}

// Schedule is a fully timed allocation of tasks to nodes.
type Schedule struct {
	Items    []Placed  // one per task, in execution order
	NodeBusy []float64 // per-node availability after the schedule
	Makespan float64   // ω: the latest completion time (eq. 7), absolute
	Base     float64   // the scheduling instant the schedule was built at

	// Booked aliases the resource's reservation windows the schedule was
	// built around, so Cost can discount booked time from the idle terms
	// (reserved time is sold, not wasted). nil without reservations.
	Booked [][]Window
}

// BuildSequential times a solution with strict queue semantics: tasks
// are placed in the solution's order, each starting no earlier than the
// scheduling instant base, its own arrival, or the start of the task ahead
// of it (no backfilling). This is the behaviour of the FIFO baseline: it
// "does not change the order of tasks" (§4.1), so a wide task at the head
// of the queue holds narrower tasks behind it — exactly the idle time the
// GA's reordering recovers. FIFOPolicy.Append places the same way, one
// arrival at a time; BuildSequential is its oracle in the tests and the
// probes. It validates both the solution and the resource and panics on
// either; it asks predict once per task.
func BuildSequential(sol Solution, tasks []Task, res Resource, base float64, predict Predictor) *Schedule {
	if err := sol.Validate(len(tasks), res.NumNodes); err != nil {
		panic(fmt.Sprintf("schedule: BuildSequential on invalid solution: %v", err))
	}
	if err := res.Validate(); err != nil {
		panic(fmt.Sprintf("schedule: BuildSequential on invalid resource: %v", err))
	}
	s := &Schedule{Items: make([]Placed, 0, len(tasks))}
	s.Reset(res, base)
	floor := base // the start of the task ahead, never before base
	for _, taskPos := range sol.Order {
		t := &tasks[taskPos]
		if t.Arrival > floor {
			floor = t.Arrival
		}
		mask := sol.Maps[taskPos]
		floor = s.Place(taskPos, mask, floor, predictDuration(predict, t, bits.OnesCount64(mask))).Start
	}
	return s
}

// Reset empties the schedule to the state before any task is placed on
// res at the scheduling instant base: no items, every node busy until its
// committed availability, the makespan at the latest of those and base.
// The Items and NodeBusy buffers are kept, so a caller that owns a
// Schedule can rebuild it — Reset, then one Place per task — without
// allocating. res is not validated.
func (s *Schedule) Reset(res Resource, base float64) {
	s.Items = s.Items[:0]
	s.NodeBusy = append(s.NodeBusy[:0], res.Avail...)
	s.Makespan = base
	for _, a := range s.NodeBusy {
		if a > s.Makespan {
			s.Makespan = a
		}
	}
	s.Base = base
	s.Booked = res.Booked
}

// Place appends the task at taskPos to the schedule (eq. 6): its nodes
// start in unison at floor or when the last of them becomes free,
// whichever is later, pushed past any booked window the run of dur seconds
// would overlap. floor carries what the caller's queue discipline demands:
// the scheduling instant, the task's arrival and, under strict queue
// order, the start of the task ahead of it. It is the one placement step
// behind Problem.Build, BuildSequential and the FIFO policy.
func (s *Schedule) Place(taskPos int, mask uint64, floor, dur float64) Placed {
	return s.place(taskPos, mask, floor, dur, nil)
}

// place is Place that, given a gap record, also records in it the idle
// gap the task closes on each of its nodes.
func (s *Schedule) place(taskPos int, mask uint64, floor, dur float64, gaps *gapRecord) Placed {
	start := floor
	for m := mask; m != 0; m &= m - 1 {
		if b := s.NodeBusy[bits.TrailingZeros64(m)]; b > start {
			start = b
		}
	}
	if s.Booked != nil {
		// Reservations are immovable: push the task past any booked
		// window it would overlap on its allocated nodes.
		start = AdjustStart(s.Booked, mask, start, dur)
	}
	end := start + dur
	if gaps == nil {
		for m := mask; m != 0; m &= m - 1 {
			s.NodeBusy[bits.TrailingZeros64(m)] = end
		}
	} else {
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			gaps.close(i, s.NodeBusy[i], start)
			s.NodeBusy[i] = end
		}
		gaps.used |= mask
	}
	if end > s.Makespan {
		s.Makespan = end
	}
	p := Placed{TaskPos: taskPos, Mask: mask, Start: start, End: end}
	s.Items = append(s.Items, p)
	return p
}

// gapRecord holds, for each node of a schedule being built, its idle gaps
// in placement order: node i's are gaps[i*stride:][:n[i]]. A node holds at
// most one gap per task, so with stride the task count the flat record
// never grows during a build.
type gapRecord struct {
	gaps   []Window
	n      []int
	stride int
	base   float64 // the scheduling instant
	used   uint64  // nodes that hold a task
}

// reset empties the record for a build of tasks on nodes at base, growing
// its storage only past the largest instance it has served.
func (g *gapRecord) reset(tasks, nodes int, base float64) {
	g.stride, g.base, g.used = tasks, base, 0
	g.gaps = slices.Grow(g.gaps[:0], tasks*nodes)[:tasks*nodes]
	g.n = slices.Grow(g.n[:0], nodes)[:nodes]
	clear(g.n)
}

// close records on node i, whose last task ends at busy, the gap up to a
// task starting at start. Before a node's first task the gap runs from
// the scheduling instant instead, so time a node is still busy with
// committed work counts as idle, and a node free before the instant
// idles only from it.
func (g *gapRecord) close(i int, busy, start float64) {
	from := busy
	if g.used&(1<<uint(i)) == 0 {
		from = g.base
	}
	if start > from {
		g.gaps[i*g.stride+g.n[i]] = Window{Start: from, End: start}
		g.n[i]++
	}
}

// last returns where node i's final gap, up to the makespan, begins: the
// end of its last task, or the scheduling instant if it holds none.
func (g *gapRecord) last(i int, nodeBusy []float64) float64 {
	if g.used&(1<<uint(i)) == 0 {
		return g.base
	}
	return nodeBusy[i]
}

// fillDurations writes to durs the duration table of tasks on 1..numNodes
// nodes, task-major and k ascending: the order in which GreedySeed reads
// it, so filling it asks the predictor exactly what GreedySeed would.
func fillDurations(durs []float64, tasks []Task, numNodes int, predict Predictor) []float64 {
	durs = durs[:0]
	for _, t := range tasks {
		for k := 1; k <= numNodes; k++ {
			durs = append(durs, predictDuration(predict, &t, k))
		}
	}
	return durs
}

// predictDuration asks predict for t's duration on k nodes. A negative
// prediction is a broken model, not a schedule.
func predictDuration(predict Predictor, t *Task, k int) float64 {
	dur := predict(t.App, k)
	if dur < 0 {
		panic(fmt.Sprintf("schedule: negative predicted duration %g for %s", dur, *t))
	}
	return dur
}

// Builder times solutions against one problem instance at a scheduling
// instant given per call: it is a Problem whose Base each Build sets. It
// exists for the layer probes in bench/probes.go; the schedulers use
// Problem directly.
type Builder struct{ p Problem }

// NewBuilder validates the resource and returns a builder for the
// instance. Its duration table is filled on the first Build.
func NewBuilder(tasks []Task, res Resource, predict Predictor) (*Builder, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	if predict == nil {
		return nil, fmt.Errorf("schedule: builder needs a predictor")
	}
	b := new(Builder)
	b.p.Reset(tasks, res, 0, predict)
	return b, nil
}

// Build is Problem.Build at the scheduling instant base: the schedule is
// the builder's own until its next Build, and sol is not re-validated.
func (b *Builder) Build(sol Solution, base float64) *Schedule {
	b.p.Base = base
	return b.p.Build(sol)
}
