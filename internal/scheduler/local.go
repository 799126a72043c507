package scheduler

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/pace"
	"repro/internal/reserve"
	"repro/internal/schedule"
)

// Record is the completed placement of one task: which physical nodes ran
// it, when it started and completed, and the contract it had to meet. The
// metrics of §3.3 are computed over these records.
type Record struct {
	TaskID int // scheduler-local ID; restarts at 1 on every resource
	// ReqID is the grid-wide request identity minted at arrival
	// (core.SubmitAt) and preserved across re-dispatches; 0 for tasks
	// submitted directly to a standalone scheduler.
	ReqID    uint64
	App      *pace.AppModel
	Arrival  float64
	Deadline float64
	Mask     uint64 // physical node mask on the owning resource
	Start    float64
	End      float64
	Resource string
	// Predicted is the PACE-predicted execution duration the plan was
	// built on. End−Start equals Predicted unless an ActualDuration hook
	// or a degradation slowdown stretched the real execution — the gap is
	// the drift signal the migration policy watches.
	Predicted float64
}

// Executor is the task-execution module of Fig. 3. Under the paper's test
// mode tasks are not actually executed: "the predictive application
// execution times are scheduled and assumed to be accurate" (§3.2).
type Executor interface {
	// Launch is called exactly once per task, when it begins execution.
	Launch(rec Record)
}

// TestExecutor implements test mode and records every launch, for the
// tests that read them. It keeps each record for its own lifetime.
type TestExecutor struct {
	Launched []Record
}

// Launch implements Executor.
func (e *TestExecutor) Launch(rec Record) { e.Launched = append(e.Launched, rec) }

// discardExecutor is the default Executor: test mode that keeps nothing,
// since the scheduler already holds every record it needs.
type discardExecutor struct{}

// Launch implements Executor.
func (discardExecutor) Launch(Record) {}

// Config configures a Local scheduler.
type Config struct {
	Name         string        // resource/agent identity, e.g. "S1"
	HW           pace.Hardware // static resource model for all nodes
	NumNodes     int           // homogeneous processing nodes (§3.2)
	Policy       Policy        // GA or FIFO
	Engine       *pace.Engine  // PACE evaluation engine (shared or private)
	Environments []string      // supported execution environments; defaults to {"test"}
	Executor     Executor      // defaults to test mode keeping nothing

	// ActualDuration, when set, supplies the task's real execution time
	// given the prediction — the §5 prediction-accuracy study. The
	// scheduler keeps planning with predictions; reality diverges at
	// execution time and subsequent plans see the true node availability.
	// nil means predictions are exact (the paper's test mode).
	ActualDuration func(app *pace.AppModel, nprocs int, predicted float64, taskID int) float64
}

// Local is a performance-driven local grid scheduler (Fig. 3): one input
// (requests), two outputs (results, service information) and the task
// management, GA scheduling, resource monitoring, task execution and PACE
// evaluation modules in between.
//
// Local is driven in virtual time by its caller: AdvanceTo promotes
// planned tasks into execution as the clock passes their start times, and
// Submit enqueues work and replans the queue. It is not safe for
// concurrent use; the networked daemon in cmd/gridagent serialises access.
type Local struct {
	cfg     Config
	col     *pace.Column       // cfg.HW's column of the engine's prediction table
	predict schedule.Predictor // l.duration, bound once
	monitor *Monitor
	metrics Metrics

	pending []schedule.Task // the GA's optimisation set T, arrival order
	// plan is the live plan: one item per pending task (none while no node
	// is up), in buffers the scheduler owns and reuses. NodeBusy is the
	// per-node availability projected past every planned task — what the
	// next arrival is allocated against.
	plan     schedule.Schedule
	planPhys []int  // plan-space node -> physical node; nil while every node is up
	planDown uint64 // the monitor's down-node mask the plan was built under
	// appender is the policy's append step, if it has one. Such a policy
	// plans in queue order, so promotion pops plan and queue together
	// from the front and a submit can extend the plan instead of
	// rebuilding it (see appendToPlan).
	appender Appender
	// exact reports that plan is still, bit for bit, what a replan of the
	// pending queue would build: it was built around no reservation
	// window, and every task promoted since started and ended exactly
	// when planned.
	exact bool

	committed []Record
	nodeBusy  []float64 // physical per-node busy-until from committed tasks
	avail     []float64 // scratch: Resource.Avail of the plan being built, or a quote's node floors
	upNodes   []int     // scratch behind planPhys

	// book is the resource's advance-reservation book, created on first
	// use; reserved holds the confirmed reservations waiting for their
	// windows, sorted by window start. Both stay nil/empty — and cost
	// nothing — until a reservation reaches this resource.
	book     *reserve.Book
	reserved []reservedTask

	nextID int
	now    float64

	// nextStart caches the earliest planned start time (+Inf with no
	// plan), letting AdvanceTo return without touching the plan when the
	// clock has not reached it — the grid advances thousands of idle
	// schedulers per arrival otherwise. planHook, when set, is told the
	// new horizon after every plan change so the grid can maintain a
	// due-time index instead of polling every scheduler.
	nextStart float64
	planHook  func(at float64)

	// clock, when set, supplies the grid's virtual time. Freetime floors
	// at it so advertisements stay correct while l.now lags behind under
	// lazy advancement (an idle scheduler's clock is only moved when work
	// or a planned start reaches it).
	clock func() float64

	// slowdown, when set, multiplies the execution duration of every task
	// by the factor in effect at its start time — how fault-plan
	// degradation windows reach the scheduler. It stacks on top of any
	// ActualDuration hook, and unlike that hook it is keyed on the start
	// instant, so the same plan always degrades the same tasks no matter
	// how clock advances interleave with fault events.
	slowdown func(start float64) float64
}

// NewLocal validates cfg and returns a scheduler at virtual time 0.
func NewLocal(cfg Config) (*Local, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("scheduler: config needs a name")
	}
	if err := cfg.HW.Valid(); err != nil {
		return nil, err
	}
	if cfg.NumNodes < 1 || cfg.NumNodes > schedule.MaxNodes {
		return nil, fmt.Errorf("scheduler: %q: node count %d outside [1, %d]", cfg.Name, cfg.NumNodes, schedule.MaxNodes)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("scheduler: %q: no scheduling policy", cfg.Name)
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("scheduler: %q: no PACE evaluation engine", cfg.Name)
	}
	if len(cfg.Environments) == 0 {
		cfg.Environments = []string{"test"}
	}
	if cfg.Executor == nil {
		cfg.Executor = discardExecutor{}
	}
	col, err := cfg.Engine.Column(cfg.HW)
	if err != nil {
		return nil, err
	}
	l := &Local{
		cfg:       cfg,
		col:       col,
		monitor:   NewMonitor(cfg.NumNodes),
		nodeBusy:  make([]float64, cfg.NumNodes),
		nextStart: math.Inf(1),
	}
	l.predict = l.duration
	l.appender, _ = cfg.Policy.(Appender)
	return l, nil
}

// SetClock installs a shared virtual-time source (nil removes it).
// Freetime — and therefore every advertisement and eq. 10 estimate —
// floors at the shared clock, so a scheduler whose own clock lags under
// lazy advancement still reports the same freetime an eagerly advanced
// one would.
func (l *Local) SetClock(fn func() float64) { l.clock = fn }

// SetPlanHook installs fn (nil removes it), called with the earliest
// planned start time whenever a replan or promotion changes the plan and
// at least one task remains planned. The grid uses it to index which
// schedulers are due at a given virtual time.
func (l *Local) SetPlanHook(fn func(at float64)) { l.planHook = fn }

// NextPlannedStart returns the earliest planned start time, or +Inf when
// nothing is planned.
func (l *Local) NextPlannedStart() float64 { return l.nextStart }

// refreshNextStart recomputes the cached plan horizon and notifies the
// plan hook.
func (l *Local) refreshNextStart() {
	next := math.Inf(1)
	if items := l.plan.Items; l.appender != nil && len(items) > 0 {
		next = items[0].Start // queue order is start order
	} else {
		for _, it := range items {
			if it.Start < next {
				next = it.Start
			}
		}
	}
	if len(l.reserved) > 0 && l.reserved[0].start < next {
		next = l.reserved[0].start // sorted by window start
	}
	l.setNextStart(next)
}

// setNextStart caches the plan horizon and tells the plan hook, which
// wants an entry at every finite horizon the scheduler ever has.
func (l *Local) setNextStart(next float64) {
	l.nextStart = next
	if l.planHook != nil && !math.IsInf(next, 1) {
		l.planHook(next)
	}
}

// Name returns the resource identity.
func (l *Local) Name() string { return l.cfg.Name }

// Hardware returns the static resource model.
func (l *Local) Hardware() pace.Hardware { return l.cfg.HW }

// NumNodes returns the configured node count.
func (l *Local) NumNodes() int { return l.cfg.NumNodes }

// Environments returns the supported execution environments.
func (l *Local) Environments() []string { return l.cfg.Environments }

// Monitor exposes the resource monitor (for failure injection).
func (l *Local) Monitor() *Monitor { return l.monitor }

// Engine returns the PACE evaluation engine this scheduler queries.
func (l *Local) Engine() *pace.Engine { return l.cfg.Engine }

// Policy returns the active scheduling policy.
func (l *Local) Policy() Policy { return l.cfg.Policy }

// SetMetrics installs telemetry instruments; the zero Metrics disables
// instrumentation again. Call before driving the scheduler.
func (l *Local) SetMetrics(m Metrics) { l.metrics = m }

// updateGauges refreshes the queue-shape gauges after a queue change.
// Backlog is gated on its instrument because Freetime() walks the node
// horizon — with telemetry off this must stay free.
func (l *Local) updateGauges() {
	l.metrics.QueueDepth.Set(float64(len(l.pending)))
	if l.metrics.Backlog != nil {
		l.metrics.Backlog.Set(l.Freetime() - l.now)
	}
}

// PolicyName reports the active scheduling policy.
func (l *Local) PolicyName() string { return l.cfg.Policy.Name() }

// Now returns the scheduler's current virtual time.
func (l *Local) Now() float64 { return l.now }

// QueueLen returns the number of tasks waiting to start.
func (l *Local) QueueLen() int { return len(l.pending) }

// duration returns t_x(k, app) for this resource's hardware. The call
// goes to the evaluation engine through the hardware column resolved at
// construction — a hit costs no string hashing, and is counted as the hit
// it is: the demand-driven cache of past evaluations "between the
// scheduler and the PACE evaluation engine" (§2.2) lives inside the
// engine, so disabling it for the ablation study exposes the full
// evaluation cost to the GA.
func (l *Local) duration(app *pace.AppModel, k int) float64 {
	return l.col.MustPredict(app, k)
}

// Submit enqueues a task with the given application model and absolute
// deadline, replans the queue, and returns the task's scheduler-local ID.
// The clock is advanced to now first, promoting any planned starts the
// clock passes. Tasks submitted this way carry no grid-wide request
// identity; grid-level callers use SubmitRequest.
func (l *Local) Submit(app *pace.AppModel, deadline float64, now float64) (int, error) {
	return l.SubmitRequest(app, deadline, now, 0)
}

// SubmitRequest is Submit with the grid-wide request ID minted at arrival
// threaded through: the ID is stamped on the queued task and every
// execution record derived from it, so lifecycle events can be joined
// across resources (scheduler-local IDs restart at 1 on each resource).
func (l *Local) SubmitRequest(app *pace.AppModel, deadline, now float64, reqID uint64) (int, error) {
	if app == nil {
		return 0, fmt.Errorf("scheduler: %q: nil application model", l.cfg.Name)
	}
	if l.monitor.NumUp() == 0 {
		return 0, fmt.Errorf("scheduler: %q: no processing nodes available", l.cfg.Name)
	}
	l.AdvanceTo(now)
	l.nextID++
	id := l.nextID
	t := schedule.Task{ID: id, ReqID: reqID, App: app, Arrival: now, Deadline: deadline}
	l.pending = append(l.pending, t)
	if wins := l.windows(); wins != nil || !l.appendToPlan(t) {
		l.replan(wins)
	}
	l.metrics.TasksSubmitted.Inc()
	l.updateGauges()
	return id, nil
}

// Delete removes a waiting task from the queue (task management supports
// "adding, deleting or inserting tasks", §2.2). Tasks that already began
// execution cannot be deleted.
func (l *Local) Delete(taskID int, now float64) error {
	l.AdvanceTo(now)
	for i, t := range l.pending {
		if t.ID == taskID {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			l.cfg.Policy.Forget(taskID)
			l.replan(l.windows())
			l.updateGauges()
			return nil
		}
	}
	return fmt.Errorf("scheduler: %q: task %d is not waiting", l.cfg.Name, taskID)
}

// windows returns the active reservation windows in physical node space,
// nil when nothing is booked.
func (l *Local) windows() [][]schedule.Window {
	if l.book == nil {
		return nil
	}
	return l.book.Windows(l.now)
}

// resource describes the nodes available now, each free once its
// committed work ends, to a planning step — in scratch the next call
// overwrites — and records them as the node set of the plan about to be
// built. wins are the windows to plan around.
func (l *Local) resource(wins [][]schedule.Window) schedule.Resource {
	l.planDown, l.planPhys, l.avail = l.monitor.down, nil, l.avail[:0]
	if l.planDown == 0 {
		l.avail = append(l.avail, l.nodeBusy...)
	} else {
		l.upNodes = l.monitor.appendUp(l.upNodes[:0])
		l.planPhys = l.upNodes
		for _, phys := range l.upNodes {
			l.avail = append(l.avail, l.nodeBusy[phys])
		}
	}
	res := schedule.Resource{NumNodes: len(l.avail), Avail: l.avail, Phys: l.planPhys}
	if wins != nil {
		// Booked windows are immovable constraints: map the active
		// physical-node windows into the plan's node space.
		res.Booked = wins
		if l.planPhys != nil {
			res.Booked = make([][]schedule.Window, len(l.planPhys))
			for c, phys := range l.planPhys {
				res.Booked[c] = wins[phys]
			}
		}
	}
	return res
}

// planStart and planDone bracket one planning step, a replan or an append
// alike, for the Plans counter and the PlanLatency histogram:
// defer l.planDone(l.planStart()).
func (l *Local) planStart() (t0 time.Time) {
	l.metrics.Plans.Inc()
	if l.metrics.PlanLatency != nil {
		t0 = time.Now()
	}
	return t0
}

func (l *Local) planDone(t0 time.Time) {
	if l.metrics.PlanLatency != nil {
		l.metrics.PlanLatency.Observe(time.Since(t0).Seconds())
	}
}

// replan runs the scheduling policy over the whole pending queue against
// the currently available nodes, around the reservation windows wins.
func (l *Local) replan(wins [][]schedule.Window) {
	defer l.refreshNextStart()
	res := l.resource(wins)
	l.exact = false
	if res.NumNodes == 0 {
		l.plan.Items = l.plan.Items[:0]
		return
	}
	defer l.planDone(l.planStart())
	p := l.cfg.Policy.Plan(l.pending, res, l.now, l.predict)
	// The policy may hand out scratch of its own: keep a copy.
	l.plan.Items = append(l.plan.Items[:0], p.Items...)
	l.plan.NodeBusy = append(l.plan.NodeBusy[:0], p.NodeBusy...)
	l.plan.Makespan, l.plan.Base, l.plan.Booked = p.Makespan, p.Base, p.Booked
	l.exact = wins == nil
}

// appendToPlan plans t — just queued behind everything else, with no
// reservation window active — by one append step of the policy on the
// live plan, and reports whether it could; the caller replans the whole
// queue otherwise. What the step costs does not depend on the queue
// length, and it is taken only while the live plan is provably what that
// replan would rebuild for the tasks ahead of t, so the two agree bit
// for bit: the policy never moves a planned task (it has an append step),
// the plan was built around no window and every promotion since landed
// exactly on its planned slot (exact), and the same nodes are up. A
// replan at a later instant then recomputes the same numbers: committed
// availability is what the plan projected past the promoted tasks, and
// every waiting task starts after now, arrival and scheduling instant
// behind it. With nothing waiting there is no plan to be wrong: the
// append starts from the committed state.
func (l *Local) appendToPlan(t schedule.Task) bool {
	if l.appender == nil {
		return false
	}
	if len(l.pending) == 1 {
		l.plan.Reset(l.resource(nil), l.now)
		l.exact = true
	} else if !l.exact || l.monitor.down != l.planDown {
		return false
	}
	defer l.planDone(l.planStart())
	l.appender.Append(&l.plan, t, l.planPhys, l.now, l.predict)
	// t starts no earlier than anything planned before it.
	if at := l.plan.Items[len(l.plan.Items)-1].Start; at < l.nextStart {
		l.setNextStart(at)
	}
	return true
}

// AdvanceTo moves the scheduler's clock to now, promoting every planned
// task whose start time has been reached into execution ("once a task
// begins execution, it is removed from the task set T", §2.2).
func (l *Local) AdvanceTo(now float64) {
	if now < l.now {
		panic(fmt.Sprintf("scheduler: %q: clock moved backwards %v -> %v", l.cfg.Name, l.now, now))
	}
	l.now = now
	// Nothing is due strictly before the cached plan horizon; skip the
	// promotion scan. now == nextStart must fall through: a replan can
	// place a start exactly at the current instant and the next advance to
	// that same instant promotes it.
	if now < l.nextStart {
		return
	}
	l.promoteReserved(now)
	l.promote(now)
}

// Drain promotes every remaining planned task regardless of the clock,
// completing the simulation of the queue. It returns the final makespan
// (the time the last task completes), or the current time for an empty
// queue.
func (l *Local) Drain() float64 {
	l.promoteReserved(math.Inf(1))
	l.promote(math.Inf(1))
	end := l.now
	for _, b := range l.nodeBusy {
		if b > end {
			end = b
		}
	}
	return end
}

// promote moves the planned tasks whose start is at or before until into
// the committed set, in start-time order. The surviving items keep their
// timing: they were computed jointly with the promoted ones, so the
// residual plan stays feasible and consistent, and it stays in force until
// the next Submit, Delete or reservation change plans again; rerunning
// the GA on every clock advance would add cost without new information.
func (l *Local) promote(until float64) {
	items := l.plan.Items
	if len(items) == 0 {
		return
	}
	// Active reservation windows, in physical node space: a best-effort
	// start pushed late by real execution times must slide past them, not
	// into them (the plan avoided the windows with predicted durations;
	// reality can overrun the gap in front of one).
	wins := l.windows()
	n := 0
	if l.appender != nil {
		// Queue order is start order: the ready tasks are the head of the
		// plan and of the queue, and leave without the rest being touched.
		for n < len(items) && items[n].Start <= until {
			l.launch(l.pending[n], items[n], wins)
			n++
		}
		l.pending, l.plan.Items = l.pending[n:], items[n:]
	} else {
		byStart := slices.Clone(items)
		slices.SortStableFunc(byStart, func(a, b schedule.Placed) int { return cmp.Compare(a.Start, b.Start) })
		gone := make([]bool, len(l.pending)) // by queue position
		for n < len(byStart) && byStart[n].Start <= until {
			it := byStart[n]
			l.launch(l.pending[it.TaskPos], it, wins)
			gone[it.TaskPos] = true
			n++
		}
		if n > 0 {
			// Close the gaps in the queue and point the surviving items
			// at the new positions.
			newPos := make([]int, len(l.pending))
			kept := l.pending[:0]
			for pos, t := range l.pending {
				if !gone[pos] {
					newPos[pos] = len(kept)
					kept = append(kept, t)
				}
			}
			l.pending = kept
			residual := items[:0]
			for _, it := range items {
				if !gone[it.TaskPos] {
					it.TaskPos = newPos[it.TaskPos]
					residual = append(residual, it)
				}
			}
			l.plan.Items = residual
		}
	}
	if n == 0 {
		return
	}
	l.metrics.TasksStarted.Add(uint64(n))
	l.refreshNextStart()
	l.updateGauges()
}

// launch commits the waiting task t to execution on its planned slot it.
func (l *Local) launch(t schedule.Task, it schedule.Placed, wins [][]schedule.Window) {
	mask := physMask(it.Mask, l.planPhys)
	// When actual execution times diverge from predictions, a node may
	// still be busy past the planned start; the task then begins late
	// (in reality the earlier task has not released the node yet).
	start := it.Start
	for m := mask; m != 0; m &= m - 1 {
		if b := l.nodeBusy[bits.TrailingZeros64(m)]; b > start {
			start = b
		}
	}
	predicted := it.End - it.Start
	dur := predicted
	if l.cfg.ActualDuration != nil {
		dur = l.cfg.ActualDuration(t.App, bits.OnesCount64(it.Mask), dur, t.ID)
		if dur < 0 {
			dur = 0
		}
	}
	base := dur // actual duration before any start-keyed slowdown
	if l.slowdown != nil {
		if f := l.slowdown(start); f > 0 {
			dur *= f
		}
	}
	if wins != nil {
		// Fixed point: clearing a window can move the start into a
		// different slowdown regime, which changes the duration, which
		// can hit another window. The start only ever moves forward.
		for {
			adj := schedule.AdjustStart(wins, mask, start, dur)
			if adj == start {
				break
			}
			start = adj
			dur = base
			if l.slowdown != nil {
				if f := l.slowdown(start); f > 0 {
					dur = base * f
				}
			}
		}
	}
	rec := Record{
		TaskID:    t.ID,
		ReqID:     t.ReqID,
		App:       t.App,
		Arrival:   t.Arrival,
		Deadline:  t.Deadline,
		Mask:      mask,
		Start:     start,
		End:       start + dur,
		Resource:  l.cfg.Name,
		Predicted: predicted,
	}
	if rec.Start != it.Start || rec.End != it.End {
		// Reality left the plan (a late node, a real duration, a
		// slowdown, or just the rounding of End−Start): the tasks behind
		// would be placed differently by a replan now.
		l.exact = false
	}
	l.committed = append(l.committed, rec)
	l.cfg.Executor.Launch(rec)
	for m := rec.Mask; m != 0; m &= m - 1 {
		phys := bits.TrailingZeros64(m)
		if rec.End > l.nodeBusy[phys] {
			l.nodeBusy[phys] = rec.End
		}
	}
	l.cfg.Policy.Forget(t.ID)
}

// taskOf returns the waiting task that item i of the plan places. A plan
// in queue order is popped together with the queue, so it is simply the
// i-th waiting task — TaskPos indexes the queue the plan was built over
// and goes stale; any other plan is resolved through TaskPos, which
// promote keeps current.
func (l *Local) taskOf(i int) schedule.Task {
	if l.appender != nil {
		return l.pending[i]
	}
	return l.pending[l.plan.Items[i].TaskPos]
}

// AdvanceBefore returns the summed advance time Σ(δ_r − end) and the
// count over committed tasks that have completed by virtual time t —
// the running ε numerator and denominator, which the telemetry sampler
// probes mid-run to chart grid-wide ε over time. Read-only.
func (l *Local) AdvanceBefore(t float64) (sum float64, n int) {
	for _, r := range l.committed {
		if r.End <= t {
			sum += r.Deadline - r.End
			n++
		}
	}
	return sum, n
}

// SetSlowdown installs (or, with nil, removes) the degradation hook: fn
// returns the execution-time multiplier in effect for a task starting at
// the given virtual time (1 or less means no slowdown). Call before
// driving the scheduler; already-committed tasks are unaffected.
func (l *Local) SetSlowdown(fn func(start float64) float64) { l.slowdown = fn }

// DriftBetween measures how far observed execution times drifted from
// the PACE predictions over committed tasks completing in (t0, t1]: the
// summed observed and predicted durations plus the task count. The
// relative drift obs/pred − 1 is the migration policy's trigger signal —
// 0 when reality matches the model, 2 when a factor-3 degradation is in
// effect. Read-only, like AdvanceBefore.
func (l *Local) DriftBetween(t0, t1 float64) (obs, pred float64, n int) {
	for _, r := range l.committed {
		if r.End > t0 && r.End <= t1 {
			obs += r.End - r.Start
			if r.Predicted > 0 {
				pred += r.Predicted
			} else {
				pred += r.End - r.Start // pre-Predicted records: no drift
			}
			n++
		}
	}
	return obs, pred, n
}

// Records returns the committed (started or finished) tasks in start
// order.
func (l *Local) Records() []Record {
	out := make([]Record, len(l.committed))
	copy(out, l.committed)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Planned returns the current schedule for tasks that have not begun
// execution, as records carrying the planned start/completion times, in
// start order. The plan changes as tasks arrive, start, or are deleted.
func (l *Local) Planned() []Record {
	if len(l.plan.Items) == 0 {
		return nil
	}
	out := make([]Record, 0, len(l.plan.Items))
	for i, it := range l.plan.Items {
		t := l.taskOf(i)
		out = append(out, Record{
			TaskID:   t.ID,
			ReqID:    t.ReqID,
			App:      t.App,
			Arrival:  t.Arrival,
			Deadline: t.Deadline,
			Mask:     physMask(it.Mask, l.planPhys),
			Start:    it.Start,
			End:      it.End,
			Resource: l.cfg.Name,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Freetime returns ω: "the earliest (approximate) time that corresponding
// processors become available for more tasks" (§3.2) — the maximum of the
// current clock, the committed per-node busy horizon, and the makespan of
// the latest schedule over pending work. The plan's makespan alone is not
// enough: under the §5 prediction-error study actual execution times can
// run past the planned horizon, and a plan over a degraded node set never
// sees the busy times of down nodes — either way an agent advertising
// only the makespan would promise optimistic freetime.
func (l *Local) Freetime() float64 {
	ft := l.now
	if l.clock != nil {
		if c := l.clock(); c > ft {
			ft = c
		}
	}
	if l.book != nil {
		// Booked windows are sold: the nodes are not available for more
		// tasks until the last active booking ends, so the advertised
		// freetime covers it — and snaps back the instant a hold expires
		// or a booking is released.
		if h := l.book.Horizon(ft); h > ft {
			ft = h
		}
	}
	for _, b := range l.nodeBusy {
		if b > ft {
			ft = b
		}
	}
	if len(l.plan.Items) > 0 && l.plan.Makespan > ft {
		ft = l.plan.Makespan
	}
	return ft
}

// EstimateCompletion implements eq. 10 for this resource: the expected
// completion time of app if it were dispatched here now,
//
//	η_r = ω + min over node subsets of t_x(ρ, σ_r),
//
// which for a homogeneous resource is the engine's fastest time over the
// node counts up to the nodes up (§3.2), memoised in its table.
func (l *Local) EstimateCompletion(app *pace.AppModel) (float64, error) {
	up := l.monitor.NumUp()
	if up == 0 {
		return 0, fmt.Errorf("scheduler: %q: no processing nodes available", l.cfg.Name)
	}
	best, err := l.col.Best(app, up)
	if err != nil {
		return 0, err
	}
	return l.Freetime() + best, nil
}

// ServiceInfo is the advertisement a local scheduler submits to its agent
// (Fig. 5): identity, hardware model, node count, supported execution
// environments and the freetime estimate the agents use to judge
// workload.
type ServiceInfo struct {
	Name         string
	HWType       string
	NProc        int
	Environments []string
	Freetime     float64

	// FailedPulls and Redispatches are the publishing agent's fault
	// counters, filled in by the agent layer so peers (and the Experiment
	// 4 harness) can observe a resource's failure history alongside its
	// advertisement. The scheduler itself always reports zero.
	FailedPulls  int
	Redispatches int
}

// ServiceInfo returns the current advertisement.
func (l *Local) ServiceInfo() ServiceInfo {
	envs := make([]string, len(l.cfg.Environments))
	copy(envs, l.cfg.Environments)
	return ServiceInfo{
		Name:         l.cfg.Name,
		HWType:       l.cfg.HW.Name,
		NProc:        l.cfg.NumNodes,
		Environments: envs,
		Freetime:     l.Freetime(),
	}
}

// SupportsEnvironment reports whether the scheduler can execute tasks in
// the given environment (matchmaking precondition, §3.2).
func (l *Local) SupportsEnvironment(env string) bool {
	for _, e := range l.cfg.Environments {
		if e == env {
			return true
		}
	}
	return false
}
