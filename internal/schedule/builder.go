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

	byTask []int32 // lazy TaskPos -> Items index (+1, 0 = absent)
}

// ItemFor returns the placement of the task at taskPos. The first call
// builds a position index over Items, making subsequent lookups O(1) —
// the executor resolves every task through here. Items must not be
// mutated once ItemFor has been called.
func (s *Schedule) ItemFor(taskPos int) (Placed, bool) {
	if s.byTask == nil {
		max := -1
		for _, it := range s.Items {
			if it.TaskPos > max {
				max = it.TaskPos
			}
		}
		idx := make([]int32, max+1)
		for i, it := range s.Items {
			idx[it.TaskPos] = int32(i) + 1
		}
		s.byTask = idx
	}
	if taskPos < 0 || taskPos >= len(s.byTask) || s.byTask[taskPos] == 0 {
		return Placed{}, false
	}
	return s.Items[s.byTask[taskPos]-1], true
}

// Build times a solution against the tasks and resource. Tasks are placed
// in the solution's order; each task starts at the latest availability of
// its allocated nodes (the nodes begin "in unison", §2.1) and no earlier
// than base (the scheduling instant) or its own arrival. Build panics on
// an illegitimate solution; genetic operators maintain legitimacy, so a
// violation is a programming error.
func Build(sol Solution, tasks []Task, res Resource, base float64, predict Predictor) *Schedule {
	return oneShot(sol, tasks, res, predict, false).Build(sol, base)
}

// BuildSequential is Build with strict queue semantics: start times are
// non-decreasing in the solution's order, i.e. a task cannot begin before
// the task ahead of it in the queue has begun (no backfilling). This is
// the behaviour of the FIFO baseline: it "does not change the order of
// tasks" (§4.1), so a wide task at the head of the queue holds narrower
// tasks behind it — exactly the idle time the GA's reordering recovers.
func BuildSequential(sol Solution, tasks []Task, res Resource, base float64, predict Predictor) *Schedule {
	return oneShot(sol, tasks, res, predict, true).Build(sol, base)
}

// oneShot is the single-use Builder behind Build and BuildSequential,
// whose callers hand over a solution nobody has checked: both it and the
// resource are validated here, on every call. It has no duration table
// and keeps no gap record: it predicts each placement's duration as it
// places, asking only what its one solution uses, and allocates for
// nothing else.
func oneShot(sol Solution, tasks []Task, res Resource, predict Predictor, sequential bool) *Builder {
	if err := sol.Validate(len(tasks), res.NumNodes); err != nil {
		panic(fmt.Sprintf("schedule: Build on invalid solution: %v", err))
	}
	if err := res.Validate(); err != nil {
		panic(fmt.Sprintf("schedule: Build on invalid resource: %v", err))
	}
	return &Builder{
		tasks: tasks, res: res, predict: predict, sequential: sequential,
		sched: Schedule{Items: make([]Placed, 0, len(tasks))},
	}
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
	s.byTask = nil
}

// Place appends the task at taskPos to the schedule (eq. 6): its nodes
// start in unison at floor or when the last of them becomes free,
// whichever is later, pushed past any booked window the run of dur seconds
// would overlap. floor carries what the caller's queue discipline demands:
// the scheduling instant, the task's arrival and, under strict queue
// order, the start of the task ahead of it. It is the one placement step
// behind Builder.Build and the FIFO policy.
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

// Builder repeatedly times solutions against one fixed problem instance
// (tasks, resource, predictor) without per-call allocation: the schedule,
// its placement list, the per-node busy vector and the gap record are
// scratch buffers reused across calls. This is the GA's cost hot path —
// the paper's own cost argument (§2.2) makes every scheduling event worth
// ~1000 builds — so the per-Build garbage of the general entry point
// matters.
//
// The (task, k) durations are fixed for one instance, so a Builder reads
// them from a dense table filled once per instance instead of asking the
// predictor on every placement, and while it places tasks it records
// each node's idle gaps, from which Problem evaluates eq. 8 without
// rescanning the placement list once per node.
//
// Validation is hoisted to construction: NewBuilder checks the resource
// once, and Build trusts the solution (the genetic operators maintain
// legitimacy; validate seeds once per Plan with Solution.Validate). A
// Builder is not safe for concurrent use; use one per goroutine.
type Builder struct {
	tasks      []Task
	res        Resource
	sequential bool // strict queue order, see BuildSequential
	sched      Schedule

	// durs[pos*res.NumNodes+k-1] is tasks[pos]'s predicted duration on k
	// nodes. It is read-only and may be shared (a Problem's builders share
	// the Problem's). The one-shot builder has none and sets predict.
	durs    []float64
	predict Predictor

	gaps gapRecord // of the last Build; the one-shot builder keeps none
}

// NewBuilder validates the resource once, fills the instance's duration
// table and returns a builder for it.
func NewBuilder(tasks []Task, res Resource, predict Predictor) (*Builder, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	if predict == nil {
		return nil, fmt.Errorf("schedule: builder needs a predictor")
	}
	b := new(Builder)
	b.point(tasks, res, fillDurations(nil, tasks, res.NumNodes, predict))
	return b, nil
}

// point re-points b at a problem instance whose resource is valid and
// whose duration table is durs, keeping b's scratch buffers: a builder
// owned by a scheduler serves every scheduling event without allocating
// once the buffers have grown.
func (b *Builder) point(tasks []Task, res Resource, durs []float64) {
	b.tasks, b.res, b.durs = tasks, res, durs
	b.sched.Items = slices.Grow(b.sched.Items[:0], len(tasks))
	b.sched.NodeBusy = slices.Grow(b.sched.NodeBusy[:0], res.NumNodes)
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

// Build times sol at the scheduling instant base. The returned schedule
// aliases the builder's scratch buffers: it is valid only until the next
// Build call and must be copied (or rebuilt via the package-level Build)
// if it is to be retained. sol must be legitimate for the builder's
// problem instance; Build does not re-validate it. This is the one
// placement loop: Reset, then one Place per task in the solution's order,
// recording the idle gaps it closes (except in the one-shot builder) and
// allocating nothing beyond growing Items.
func (b *Builder) Build(sol Solution, base float64) *Schedule {
	b.sched.Reset(b.res, base)
	var gaps *gapRecord
	if b.predict == nil {
		gaps = &b.gaps
		gaps.reset(len(b.tasks), b.res.NumNodes, base)
	}
	n := b.res.NumNodes
	prevStart := base
	for _, taskPos := range sol.Order {
		t := &b.tasks[taskPos]
		mask := sol.Maps[taskPos]
		floor := base
		if t.Arrival > floor {
			floor = t.Arrival
		}
		if b.sequential && prevStart > floor {
			floor = prevStart
		}
		k := bits.OnesCount64(mask)
		var dur float64
		if b.predict != nil {
			dur = predictDuration(b.predict, t, k)
		} else {
			dur = b.durs[taskPos*n+k-1]
		}
		prevStart = b.sched.place(taskPos, mask, floor, dur, gaps).Start
	}
	return &b.sched
}
