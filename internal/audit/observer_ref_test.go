package audit

// The streaming observer as it stood before its state was indexed:
// string-keyed maps per resource, one heap-allocated state per request,
// and a global amortized sweep of the interval lists. It is kept as the
// oracle that TestObserverMatchesReference holds Observer to, violation
// for violation, on mutated lifecycle streams. Only its type names
// differ from the original; the shared helpers (Violation, Counts,
// resvPhase, parseResvDetail) are the package's own.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/agent"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// refObserver is the streaming form of Check: it consumes lifecycle events,
// execution records and dispatch-log entries as the run produces them and
// proves the same invariants (a)–(e) holding only O(in-flight) state. A
// request's per-lifecycle state is retired the moment its terminal event
// (complete or fail) is observed, and the exclusivity interval sets are
// pruned as the virtual clock's safe horizon advances, so a 1M-request
// run audits in memory bounded by the in-flight window, not the run
// length.
//
// Feeding contract (the grid satisfies it naturally): a request's
// execution record is observed before its start/complete events (the
// executor emits the record at promotion, then the events), and a
// dispatch-log entry before its dispatch event. Advance(now) promises
// every record observed from here on starts strictly after now — the
// grid calls it after each clock advance, when no planned start at or
// before now remains unpromoted.
//
// refObserver is not safe for concurrent use; the grid serialises all
// observation on the simulation loop.
type refObserver struct {
	nodes map[string]int

	// retire controls early retirement. Live runs retire a request at
	// its terminal event; the Check replay keeps state to the end so a
	// malformed trace (events after a terminal) is judged with full
	// context, exactly as the batch auditor did.
	retire bool

	counts    Counts
	stream    []Violation // violations in observation order
	anyEvents bool

	inflight map[uint64]*refReqState
	order    []uint64 // insertion order of live states (finish fallback)

	retired    refBitset
	retiredBig map[uint64]bool // ids too large for the bitset

	// exclusivity intervals per resource per node, pruned on Advance.
	// ivCount tracks the stored-refInterval population and ivFloor its size
	// after the last sweep, so pruning can be amortized (see Advance).
	ivs     map[string][][]refInterval
	ivCount int
	ivFloor int
	horizon float64

	// streaming §3.3 recomputation: unclipped per-node busy sums plus
	// the record span, checked against the report window at Finish.
	busy     map[string][]float64
	advance  float64
	tasks    int
	minStart float64
	maxEnd   float64

	dispatchIdx int // running index into the dispatch log (for identity messages)
	peakStates  int

	// reservation bookings by resource and reservation ID, plus their
	// observation order for a deterministic Finish (see reserve.go).
	resv      map[string]map[uint64]*refResvBooking
	resvOrder []*refResvBooking

	// dynamic-membership state (see membership.go): departure times per
	// resource, runtime joiners seen, and open re-homing chains.
	leftAt  map[string]float64
	present map[string]bool
	rehomes []*refRehomeChain

	// down holds each currently crashed agent's peerdown time (h).
	down map[string]float64
}

type refInterval struct {
	start, end float64
	reqID      uint64
	taskID     int
}

type refDispatchKey struct {
	resource string
	taskID   int
}

// refReqState is one in-flight request's lifecycle state — everything the
// per-request checks of the batch auditor derive from the full event
// list, folded incrementally.
type refReqState struct {
	eventCount int
	arrives    int
	dispatches int
	redisp     int
	starts     int
	completes  int
	fails      int
	migOffers  int
	migWith    int
	migRedisp  int

	firstKind   trace.Kind
	prevKind    trace.Kind
	prevTime    float64
	arriveTimes []float64

	recCount int
	rec      scheduler.Record // first observed record

	// migration-chain scan state (checkMigrationChain, folded).
	migrateSeen     bool
	placed          string
	pendingWithdraw int

	// final placement decision (dispatch / redispatch / migrate-redispatch).
	hasFinal      bool
	finalKind     trace.Kind
	finalResource string
	finalTaskID   int

	// dispatch-log entries logged for this request, and the dispatch
	// events seen to match them against at finalisation.
	logged       []agent.Dispatch
	dispatchSeen []refDispatchKey
	agreement    []Violation // record-agreement violations, valid only if recCount stays 1

	// confirmed-reservation window bound to this request (audit (f2)).
	hasResv            bool
	resvStart, resvEnd float64
}

// newRefObserver returns a streaming auditor for a grid with the given node
// counts per resource.
func newRefObserver(nodes map[string]int) *refObserver {
	return &refObserver{
		nodes:    nodes,
		retire:   true,
		inflight: map[uint64]*refReqState{},
		ivs:      map[string][][]refInterval{},
		busy:     map[string][]float64{},
		present:  map[string]bool{},
		down:     map[string]float64{},
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
}

func (o *refObserver) add(check string, reqID uint64, detail string) {
	o.stream = append(o.stream, Violation{Check: check, ReqID: reqID, Detail: detail})
}

// state returns (creating if needed) the in-flight state for a request.
func (o *refObserver) state(id uint64) *refReqState {
	s := o.inflight[id]
	if s == nil {
		s = &refReqState{}
		o.inflight[id] = s
		o.order = append(o.order, id)
		if len(o.inflight) > o.peakStates {
			o.peakStates = len(o.inflight)
		}
	}
	return s
}

func (o *refObserver) isRetired(id uint64) bool {
	if o.retiredBig != nil && o.retiredBig[id] {
		return true
	}
	return o.retired.has(id)
}

func (o *refObserver) markRetired(id uint64) {
	const bitsetMax = 1 << 26 // ~8 MB of bits; larger ids spill to a map
	if id < bitsetMax {
		o.retired.set(id)
		return
	}
	if o.retiredBig == nil {
		o.retiredBig = map[uint64]bool{}
	}
	o.retiredBig[id] = true
}

// Observe folds one lifecycle event into the audit.
func (o *refObserver) Observe(ev trace.Event) {
	o.anyEvents = true
	switch ev.Kind {
	case trace.KindPeerDown:
		o.down[ev.Agent] = ev.Time
		return
	case trace.KindPeerUp:
		delete(o.down, ev.Agent)
		return
	case trace.KindReserveConfirm:
		o.checkCrashed(ev)
		o.observeReserve(ev)
		return
	case trace.KindReserveHold, trace.KindReserveRelease, trace.KindReserveExpire:
		o.observeReserve(ev)
		return
	case trace.KindJoin, trace.KindLeave, trace.KindRehomePropose, trace.KindRehomeDetach, trace.KindRehomeAttach:
		o.observeMembership(ev)
		return
	case trace.KindDispatch, trace.KindRedispatch, trace.KindMigrateRedispatch:
		o.checkCrashed(ev)
		o.checkDeparted(ev)
	case trace.KindStart:
		o.checkDeparted(ev)
	}
	if !ev.Kind.TaskBearing() {
		return
	}
	if ev.ReqID == 0 {
		o.add("identity", 0, fmt.Sprintf("%s event at t=%g (resource %q, task %d) carries no request ID", ev.Kind, ev.Time, ev.Resource, ev.TaskID))
		return
	}
	o.countEvent(ev.Kind)
	if o.isRetired(ev.ReqID) {
		// Nothing may be recorded for a request after its terminal event
		// — the retired state is gone, so this cannot be folded, only
		// flagged (the batch auditor would have found the same lifecycle
		// inconsistent).
		o.add("conservation", ev.ReqID, fmt.Sprintf("%s event at t=%g after the request terminated", ev.Kind, ev.Time))
		return
	}
	s := o.state(ev.ReqID)
	if s.eventCount == 0 {
		o.counts.Requests++
		s.firstKind = ev.Kind
	} else if ev.Time < s.prevTime {
		// (c) lifecycle-time monotonicity along the causal event order.
		o.add("timing", ev.ReqID, fmt.Sprintf("%s at t=%g precedes %s at t=%g", ev.Kind, ev.Time, s.prevKind, s.prevTime))
	}
	s.eventCount++
	s.prevKind, s.prevTime = ev.Kind, ev.Time

	switch ev.Kind {
	case trace.KindArrive:
		s.arrives++
		s.arriveTimes = append(s.arriveTimes, ev.Time)
	case trace.KindDispatch:
		s.dispatches++
		s.placed = ev.Resource
		s.setFinal(ev)
		s.dispatchSeen = append(s.dispatchSeen, refDispatchKey{ev.Resource, ev.TaskID})
	case trace.KindRedispatch:
		s.redisp++
		s.placed = ev.Resource
		s.setFinal(ev)
	case trace.KindStart:
		s.starts++
		if s.migrateSeen {
			if s.pendingWithdraw > 0 {
				o.add("conservation", ev.ReqID, "task started while withdrawn from every queue")
			}
			if s.placed != "" && ev.Resource != s.placed {
				o.add("placement", ev.ReqID, fmt.Sprintf("task started on %s but was last placed on %s", ev.Resource, s.placed))
			}
		}
		if s.recCount == 1 {
			rec := s.rec
			if ev.Time != rec.Start || ev.Resource != rec.Resource || ev.TaskID != rec.TaskID {
				s.agreement = append(s.agreement, Violation{Check: "timing", ReqID: ev.ReqID,
					Detail: fmt.Sprintf("start event (t=%g, %s task %d) disagrees with record (t=%g, %s task %d)",
						ev.Time, ev.Resource, ev.TaskID, rec.Start, rec.Resource, rec.TaskID)})
			}
		}
	case trace.KindComplete:
		s.completes++
		if s.recCount == 1 {
			rec := s.rec
			if ev.Time != rec.End || ev.Resource != rec.Resource {
				s.agreement = append(s.agreement, Violation{Check: "timing", ReqID: ev.ReqID,
					Detail: fmt.Sprintf("complete event (t=%g, %s) disagrees with record (t=%g, %s)",
						ev.Time, ev.Resource, rec.End, rec.Resource)})
			}
		}
	case trace.KindFail:
		s.fails++
	case trace.KindMigrateOffer:
		s.migOffers++
		s.migrateSeen = true
		if s.placed != "" && ev.Resource != s.placed {
			o.add("conservation", ev.ReqID, fmt.Sprintf("migrate-offer from %s but the task was placed on %s", ev.Resource, s.placed))
		}
	case trace.KindMigrateWithdraw:
		s.migWith++
		s.migrateSeen = true
		if s.migOffers < s.migWith {
			o.add("conservation", ev.ReqID, "migrate-withdraw without a preceding migrate-offer")
		}
		if s.pendingWithdraw > 0 {
			o.add("conservation", ev.ReqID, "second migrate-withdraw before the previous chain re-dispatched")
		}
		if s.placed != "" && ev.Resource != s.placed {
			o.add("conservation", ev.ReqID, fmt.Sprintf("migrate-withdraw from %s but the task was placed on %s", ev.Resource, s.placed))
		}
		s.pendingWithdraw++
	case trace.KindMigrateRedispatch:
		s.migRedisp++
		s.migrateSeen = true
		if s.pendingWithdraw == 0 {
			o.add("conservation", ev.ReqID, "migrate-redispatch without a migrate-withdraw: the task would run twice")
		} else {
			s.pendingWithdraw--
		}
		s.placed = ev.Resource
		s.setFinal(ev)
	}

	if o.retire && (ev.Kind == trace.KindComplete || ev.Kind == trace.KindFail) {
		o.finalize(ev.ReqID, s)
		delete(o.inflight, ev.ReqID)
		o.markRetired(ev.ReqID)
	}
}

func (s *refReqState) setFinal(ev trace.Event) {
	s.hasFinal = true
	s.finalKind = ev.Kind
	s.finalResource = ev.Resource
	s.finalTaskID = ev.TaskID
}

func (o *refObserver) countEvent(k trace.Kind) {
	switch k {
	case trace.KindArrive:
		o.counts.Arrives++
	case trace.KindDispatch:
		o.counts.Dispatches++
	case trace.KindRedispatch:
		o.counts.Redispatches++
	case trace.KindComplete:
		o.counts.Completes++
	case trace.KindFail:
		o.counts.Fails++
	case trace.KindMigrateOffer:
		o.counts.MigrateOffers++
	case trace.KindMigrateWithdraw:
		o.counts.MigrateWithdraws++
	case trace.KindMigrateRedispatch:
		o.counts.MigrateRedispatches++
	}
}

// ObserveRecord folds one committed execution record into the audit:
// record timing (c), node exclusivity (b) via sorted-refInterval insertion,
// and the §3.3 accumulators for the metrics recomputation (e).
func (o *refObserver) ObserveRecord(rec scheduler.Record) {
	o.counts.Records++

	// (c) on the record itself.
	if rec.Start < rec.Arrival {
		o.add("timing", rec.ReqID, fmt.Sprintf("task %d on %s starts at t=%g before its arrival t=%g", rec.TaskID, rec.Resource, rec.Start, rec.Arrival))
	}
	if rec.End < rec.Start {
		o.add("timing", rec.ReqID, fmt.Sprintf("task %d on %s ends at t=%g before its start t=%g", rec.TaskID, rec.Resource, rec.End, rec.Start))
	}

	// (b) exclusivity, and (e) accumulation, for known resources.
	n, known := o.nodes[rec.Resource]
	switch {
	case !known:
		o.add("exclusivity", rec.ReqID, fmt.Sprintf("record on unknown resource %q", rec.Resource))
	case rec.Mask == 0:
		o.add("exclusivity", rec.ReqID, fmt.Sprintf("record task %d on %s allocates no nodes", rec.TaskID, rec.Resource))
	default:
		nodes := o.ivs[rec.Resource]
		if nodes == nil {
			nodes = make([][]refInterval, n)
			o.ivs[rec.Resource] = nodes
		}
		for m := rec.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if i >= n {
				o.add("exclusivity", rec.ReqID, fmt.Sprintf("record task %d uses node %d of %d on %s", rec.TaskID, i, n, rec.Resource))
				continue
			}
			nodes[i] = o.insertInterval(nodes[i], refInterval{rec.Start, rec.End, rec.ReqID, rec.TaskID}, rec.Resource, i)
			o.ivCount++
		}
	}
	if known {
		o.tasks++
		o.advance += rec.Deadline - rec.End
		if rec.Start < o.minStart {
			o.minStart = rec.Start
		}
		if rec.End > o.maxEnd {
			o.maxEnd = rec.End
		}
		busy := o.busy[rec.Resource]
		if busy == nil {
			busy = make([]float64, n)
			o.busy[rec.Resource] = busy
		}
		if rec.End > rec.Start {
			for m := rec.Mask; m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); i < len(busy) {
					busy[i] += rec.End - rec.Start
				}
			}
		}
	}

	if rec.ReqID == 0 {
		o.add("identity", 0, fmt.Sprintf("execution record task %d on %s carries no request ID", rec.TaskID, rec.Resource))
		return
	}
	if o.isRetired(rec.ReqID) {
		o.add("conservation", rec.ReqID, fmt.Sprintf("execution record (task %d on %s) after the request terminated", rec.TaskID, rec.Resource))
		return
	}
	s := o.state(rec.ReqID)
	s.recCount++
	if s.recCount == 1 {
		s.rec = rec
	}
}

// insertInterval places iv into the node's (start, end)-sorted refInterval
// list, flagging overlap with its neighbours. Blame follows the batch
// auditor's convention: the refInterval sorting later is reported against
// the one before it.
func (o *refObserver) insertInterval(ivs []refInterval, iv refInterval, resource string, node int) []refInterval {
	pos := sort.Search(len(ivs), func(i int) bool {
		if ivs[i].start != iv.start {
			return ivs[i].start > iv.start
		}
		return ivs[i].end > iv.end
	})
	if pos > 0 && iv.start < ivs[pos-1].end {
		prev := ivs[pos-1]
		o.add("exclusivity", iv.reqID, fmt.Sprintf(
			"task %d [%g, %g) overlaps task %d (req %d) [%g, %g) on %s node %d",
			iv.taskID, iv.start, iv.end, prev.taskID, prev.reqID, prev.start, prev.end, resource, node))
	}
	if pos < len(ivs) && ivs[pos].start < iv.end {
		next := ivs[pos]
		o.add("exclusivity", next.reqID, fmt.Sprintf(
			"task %d [%g, %g) overlaps task %d (req %d) [%g, %g) on %s node %d",
			next.taskID, next.start, next.end, iv.taskID, iv.reqID, iv.start, iv.end, resource, node))
	}
	ivs = append(ivs, refInterval{})
	copy(ivs[pos+1:], ivs[pos:])
	ivs[pos] = iv
	return ivs
}

// ObserveDispatch folds one dispatch-log entry; it is matched against the
// request's dispatch events at finalisation.
func (o *refObserver) ObserveDispatch(d agent.Dispatch) {
	idx := o.dispatchIdx
	o.dispatchIdx++
	if d.ReqID == 0 {
		o.add("identity", 0, fmt.Sprintf("dispatch log entry %d (%s task %d) carries no request ID", idx, d.Resource, d.TaskID))
		return
	}
	if o.isRetired(d.ReqID) {
		o.add("placement", d.ReqID, fmt.Sprintf("dispatch log entry (%s task %d) after the request terminated", d.Resource, d.TaskID))
		return
	}
	o.state(d.ReqID).logged = append(o.state(d.ReqID).logged, d)
}

// Advance records the grid's post-advance safe horizon — the caller
// promises every record observed from here on starts at or after now —
// and prunes exclusivity intervals that can no longer overlap anything.
// The sweep walks every node list, so it is amortized: it runs only once
// the refInterval population has doubled since the last sweep (with a small
// floor). Advance is called on every grid event; without the gate the
// audit would cost O(resources) per event, exactly the scaling wall the
// due-heap advance removed from the grid itself.
func (o *refObserver) Advance(now float64) {
	if now > o.horizon {
		o.horizon = now
	}
	if o.ivCount < 2*o.ivFloor+64 {
		return
	}
	o.sweep()
}

// sweep drops every refInterval that ended at or before the horizon.
func (o *refObserver) sweep() {
	for _, nodes := range o.ivs {
		for i, ivs := range nodes {
			// Real runs fill each node sequentially, so retired
			// intervals form a prefix; stop at the first survivor.
			j := 0
			for j < len(ivs) && ivs[j].end <= o.horizon {
				j++
			}
			if j == 0 {
				continue
			}
			o.ivCount -= j
			nodes[i] = append(ivs[:0], ivs[j:]...)
		}
	}
	o.ivFloor = o.ivCount
}

// finalize runs the end-of-lifecycle checks the batch auditor performs in
// checkRequest, over the folded state.
func (o *refObserver) finalize(id uint64, s *refReqState) {
	if s.eventCount == 0 {
		if s.recCount > 0 {
			o.add("conservation", id, "execution record without any lifecycle events")
		}
		if o.anyEvents {
			for range s.logged {
				o.add("placement", id, "dispatch log entry has no lifecycle events")
			}
		}
		return
	}

	// (a) conservation.
	switch {
	case s.arrives == 0:
		o.add("conservation", id, fmt.Sprintf("lifecycle events without an arrival (%d events)", s.eventCount))
	case s.arrives > 1:
		o.add("conservation", id, fmt.Sprintf("%d arrivals for one request", s.arrives))
	}
	if s.completes+s.fails != 1 {
		o.add("conservation", id, fmt.Sprintf("request terminated %d times (%d completes, %d fails); want exactly one terminal", s.completes+s.fails, s.completes, s.fails))
	}
	if s.starts != s.completes {
		o.add("conservation", id, fmt.Sprintf("%d starts but %d completes", s.starts, s.completes))
	}
	if s.completes == 1 && s.dispatches+s.redisp+s.migRedisp == 0 {
		o.add("conservation", id, "request executed without any dispatch")
	}
	if s.recCount != s.completes {
		o.add("conservation", id, fmt.Sprintf("%d execution records for %d completions; redispatch chains must net to one execution", s.recCount, s.completes))
	}
	if s.migrateSeen && s.pendingWithdraw > 0 {
		o.add("conservation", id, "migrate-withdraw never re-dispatched: the task vanished")
	}

	// (c) first recorded event must be the arrival.
	if s.firstKind != trace.KindArrive && s.arrives > 0 {
		o.add("timing", id, fmt.Sprintf("first recorded event is %s, not the arrival", s.firstKind))
	}

	if s.recCount == 1 && s.hasResv {
		// (f2) a confirmed reservation executes within its booked window.
		if s.rec.Start < s.resvStart || s.rec.Start >= s.resvEnd {
			o.add("reservation", id, fmt.Sprintf("reserved task %d on %s started at t=%g, outside its booked window [%g,%g)",
				s.rec.TaskID, s.rec.Resource, s.rec.Start, s.resvStart, s.resvEnd))
		}
	}

	if s.recCount == 1 {
		// (c) the record must agree with its lifecycle events.
		for _, at := range s.arriveTimes {
			if at > s.rec.Arrival {
				o.add("timing", id, fmt.Sprintf("record arrival t=%g precedes the grid arrival t=%g", s.rec.Arrival, at))
			}
		}
		o.stream = append(o.stream, s.agreement...)
		// (d) the final placement decision must name the executing resource.
		if s.hasFinal && (s.finalResource != s.rec.Resource || s.finalTaskID != s.rec.TaskID) {
			o.add("placement", id, fmt.Sprintf("final %s targeted %s task %d but the execution record is %s task %d",
				s.finalKind, s.finalResource, s.finalTaskID, s.rec.Resource, s.rec.TaskID))
		}
	}

	// (d) each logged dispatch must match a dispatch event.
	for _, d := range s.logged {
		matched := false
		for _, k := range s.dispatchSeen {
			if k.resource == d.Resource && k.taskID == d.TaskID {
				matched = true
				break
			}
		}
		if !matched {
			o.add("placement", id, fmt.Sprintf("dispatch log names %s task %d but no dispatch event agrees", d.Resource, d.TaskID))
		}
	}
}

// Finish finalises every request still in flight, recomputes the §3.3
// totals against the report, and returns the verdict. The observer must
// not be fed after Finish.
func (o *refObserver) Finish(report metrics.GridReport, dropped uint64) Result {
	var res Result
	if dropped > 0 {
		res.Truncated = true
		res.Violations = append(res.Violations, Violation{Check: "trace", ReqID: 0,
			Detail: fmt.Sprintf("event ring dropped %d events; conservation is unprovable (size the recorder to the workload)", dropped)})
	}

	// Finalise survivors in request order for a deterministic report.
	live := make([]uint64, 0, len(o.inflight))
	for _, id := range o.order {
		if _, ok := o.inflight[id]; ok {
			live = append(live, id)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, id := range live {
		o.finalize(id, o.inflight[id])
		delete(o.inflight, id)
	}

	o.finishReserve()
	o.finishMembership()
	o.checkMetrics(report)

	res.Counts = o.counts
	res.Violations = append(res.Violations, o.stream...)
	return res
}

// checkMetrics verifies (e) from the streamed accumulators. The busy
// sums are unclipped — streaming cannot revisit records once the window
// is known — so the report window must enclose every record; metrics
// windows do by construction (metrics.WindowOver spans [0, latest
// completion]), and a window that does not is reported loudly rather
// than recomputed wrongly.
func (o *refObserver) checkMetrics(report metrics.GridReport) {
	w := report.Window
	t := w.End - w.Start
	if t <= 0 {
		o.add("metrics", 0, fmt.Sprintf("report window [%g, %g] is empty", w.Start, w.End))
		return
	}
	if o.tasks > 0 && (w.Start > o.minStart || w.End < o.maxEnd) {
		o.add("metrics", 0, fmt.Sprintf("window [%g, %g] does not enclose the records (span [%g, %g]); the streaming audit cannot clip busy time after the fact", w.Start, w.End, o.minStart, o.maxEnd))
		return
	}
	var util []float64
	names := make([]string, 0, len(o.nodes))
	for name := range o.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		busy := o.busy[name]
		for i := 0; i < o.nodes[name]; i++ {
			var b float64
			if i < len(busy) {
				b = busy[i]
			}
			util = append(util, b/t*100)
		}
	}
	var eps float64
	if o.tasks > 0 {
		eps = o.advance / float64(o.tasks)
	}
	var ups float64
	for _, u := range util {
		ups += u
	}
	if len(util) > 0 {
		ups /= float64(len(util))
	}
	var ss float64
	for _, u := range util {
		ss += (u - ups) * (u - ups)
	}
	var dev float64
	if len(util) > 0 {
		dev = math.Sqrt(ss / float64(len(util)))
	}
	var beta float64
	if ups > 0 {
		beta = (1 - dev/ups) * 100
		if beta < 0 {
			beta = 0
		}
	}

	const tol = 1e-6
	total := report.Total
	if o.tasks != total.Tasks {
		o.add("metrics", 0, fmt.Sprintf("report counts %d tasks; records hold %d", total.Tasks, o.tasks))
	}
	if math.Abs(eps-total.Epsilon) > tol {
		o.add("metrics", 0, fmt.Sprintf("epsilon recomputes to %.9g; report says %.9g", eps, total.Epsilon))
	}
	if math.Abs(ups-total.Upsilon) > tol {
		o.add("metrics", 0, fmt.Sprintf("upsilon recomputes to %.9g; report says %.9g", ups, total.Upsilon))
	}
	if math.Abs(beta-total.Beta) > tol {
		o.add("metrics", 0, fmt.Sprintf("beta recomputes to %.9g; report says %.9g", beta, total.Beta))
	}
}

// refBitset is a growable bit set for retired request IDs (minted densely
// from 1 by the grid).
type refBitset []uint64

func (b *refBitset) set(id uint64) {
	w := id >> 6
	for uint64(len(*b)) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (id & 63)
}

func (b refBitset) has(id uint64) bool {
	w := id >> 6
	if w >= uint64(len(b)) {
		return false
	}
	return b[w]&(1<<(id&63)) != 0
}

// refResvBooking is one booking's folded state.
type refResvBooking struct {
	resource   string
	id         uint64
	mask       uint64
	start, end float64
	expiresAt  float64
	phase      resvPhase
}

// observeReserve folds one booking-level reservation event.
func (o *refObserver) observeReserve(ev trace.Event) {
	d := parseResvDetail(ev.Detail)
	if !d.hasID {
		o.add("identity", ev.ReqID, fmt.Sprintf("%s event at t=%g on %s carries no resv= key", ev.Kind, ev.Time, ev.Resource))
		return
	}
	if ev.Resource == "" {
		o.add("identity", ev.ReqID, fmt.Sprintf("%s event for resv %d at t=%g names no resource", ev.Kind, d.id, ev.Time))
		return
	}
	byID := o.resv[ev.Resource]
	b := byID[d.id]
	switch ev.Kind {
	case trace.KindReserveHold:
		o.counts.ReserveHolds++
		if !d.hasWin || !d.hasMask || !d.hasExp {
			o.add("reservation", ev.ReqID, fmt.Sprintf("hold of resv %d on %s lacks window, mask or expiry (%q)", d.id, ev.Resource, ev.Detail))
			return
		}
		if b != nil && (b.phase == resvHeld || b.phase == resvConfirmed) {
			o.add("reservation", ev.ReqID, fmt.Sprintf("second hold of resv %d on %s while %s", d.id, ev.Resource, b.phase))
			return
		}
		// (f1) against every other booking still blocking the resource.
		for _, other := range o.resvOrder {
			if other.resource != ev.Resource || other.id == d.id {
				continue
			}
			if other.phase != resvHeld && other.phase != resvConfirmed {
				continue
			}
			if other.mask&d.mask != 0 && d.start < other.end && other.start < d.end {
				o.add("reservation", ev.ReqID, fmt.Sprintf(
					"double-booking on %s: resv %d [%g,%g) mask %x overlaps resv %d (%s) [%g,%g) mask %x",
					ev.Resource, d.id, d.start, d.end, d.mask, other.id, other.phase, other.start, other.end, other.mask))
			}
		}
		nb := &refResvBooking{
			resource: ev.Resource, id: d.id, mask: d.mask,
			start: d.start, end: d.end, expiresAt: d.expiresAt, phase: resvHeld,
		}
		if byID == nil {
			byID = map[uint64]*refResvBooking{}
			if o.resv == nil {
				o.resv = map[string]map[uint64]*refResvBooking{}
			}
			o.resv[ev.Resource] = byID
		}
		byID[d.id] = nb
		o.resvOrder = append(o.resvOrder, nb)
	case trace.KindReserveConfirm:
		o.counts.ReserveConfirms++
		if b == nil {
			o.add("reservation", ev.ReqID, fmt.Sprintf("confirm of resv %d on %s without a hold", d.id, ev.Resource))
			return
		}
		if b.phase != resvHeld {
			o.add("reservation", ev.ReqID, fmt.Sprintf("confirm of resv %d on %s while %s", d.id, ev.Resource, b.phase))
			return
		}
		// (f3) a confirm after the TTL means the hold leaked: the window
		// had already stopped blocking other admissions.
		if ev.Time > b.expiresAt {
			o.add("reservation", ev.ReqID, fmt.Sprintf("confirm of resv %d on %s at t=%g after its hold expired at t=%g", d.id, ev.Resource, ev.Time, b.expiresAt))
		}
		b.phase = resvConfirmed
		// (f2) bind the window to the request so finalize can hold its
		// execution record to it.
		if ev.ReqID != 0 && !o.isRetired(ev.ReqID) {
			s := o.state(ev.ReqID)
			s.hasResv = true
			s.resvStart, s.resvEnd = b.start, b.end
		}
	case trace.KindReserveRelease:
		o.counts.ReserveReleases++
		if b == nil {
			o.add("reservation", ev.ReqID, fmt.Sprintf("release of resv %d on %s without a hold", d.id, ev.Resource))
			return
		}
		if b.phase == resvReleased || b.phase == resvExpired {
			o.add("reservation", ev.ReqID, fmt.Sprintf("release of resv %d on %s while already %s", d.id, ev.Resource, b.phase))
			return
		}
		b.phase = resvReleased
	case trace.KindReserveExpire:
		o.counts.ReserveExpires++
		if b == nil {
			o.add("reservation", ev.ReqID, fmt.Sprintf("expiry of resv %d on %s without a hold", d.id, ev.Resource))
			return
		}
		if b.phase != resvHeld {
			o.add("reservation", ev.ReqID, fmt.Sprintf("expiry of resv %d on %s while %s — only unconfirmed holds expire", d.id, ev.Resource, b.phase))
			return
		}
		if ev.Time < b.expiresAt {
			o.add("reservation", ev.ReqID, fmt.Sprintf("resv %d on %s expired at t=%g, before its TTL at t=%g", d.id, ev.Resource, ev.Time, b.expiresAt))
		}
		b.phase = resvExpired
	}
}

// finishReserve raises (f3) for holds still dangling at the end of the
// run, in observation order.
func (o *refObserver) finishReserve() {
	for _, b := range o.resvOrder {
		if b.phase == resvHeld {
			o.add("reservation", 0, fmt.Sprintf("resv %d on %s held to the end of the run without confirm, release or expiry", b.id, b.resource))
		}
	}
}

// refRehomeChain is one in-flight propose→detach→attach chain.
type refRehomeChain struct {
	agent    string
	time     float64
	detached bool
}

// observeMembership folds one grid-level membership event.
func (o *refObserver) observeMembership(ev trace.Event) {
	name := ev.Agent
	if name == "" {
		name = ev.Resource
	}
	if name == "" {
		o.add("identity", ev.ReqID, fmt.Sprintf("%s event at t=%g names no agent", ev.Kind, ev.Time))
		return
	}
	switch ev.Kind {
	case trace.KindJoin:
		o.counts.Joins++
		// A join (or re-join) lifts the post-departure bar (g1).
		if o.leftAt != nil {
			delete(o.leftAt, name)
		}
		o.present[name] = true
	case trace.KindLeave:
		o.counts.Leaves++
		// (g3) leaving requires being there. Resources in the static
		// node map are present from the start; anything else must have
		// joined first.
		if _, static := o.nodes[name]; !static && !o.present[name] {
			o.add("membership", ev.ReqID, fmt.Sprintf("%s left at t=%g without ever joining", name, ev.Time))
		}
		if o.leftAt == nil {
			o.leftAt = map[string]float64{}
		}
		if t, gone := o.leftAt[name]; gone {
			o.add("membership", ev.ReqID, fmt.Sprintf("%s left at t=%g but had already left at t=%g", name, ev.Time, t))
		}
		o.leftAt[name] = ev.Time
		delete(o.present, name)
	case trace.KindRehomePropose:
		o.counts.RehomeProposes++
		o.rehomes = append(o.rehomes, &refRehomeChain{agent: name, time: ev.Time})
	case trace.KindRehomeDetach:
		c := o.openRehome(name, ev.Time)
		if c == nil {
			o.add("membership", ev.ReqID, fmt.Sprintf("rehome-detach of %s at t=%g without a same-instant rehome-propose", name, ev.Time))
			return
		}
		if c.detached {
			o.add("membership", ev.ReqID, fmt.Sprintf("second rehome-detach of %s at t=%g in one chain", name, ev.Time))
			return
		}
		c.detached = true
	case trace.KindRehomeAttach:
		c := o.openRehome(name, ev.Time)
		if c == nil || !c.detached {
			o.add("membership", ev.ReqID, fmt.Sprintf("rehome-attach of %s at t=%g without a same-instant rehome-detach", name, ev.Time))
			return
		}
		o.counts.Rehomes++
		o.closeRehome(c)
	}
}

// openRehome finds the open chain for the agent at the given instant.
func (o *refObserver) openRehome(name string, t float64) *refRehomeChain {
	for _, c := range o.rehomes {
		if c.agent == name && c.time == t {
			return c
		}
	}
	return nil
}

// closeRehome retires a completed chain.
func (o *refObserver) closeRehome(done *refRehomeChain) {
	for i, c := range o.rehomes {
		if c == done {
			o.rehomes = append(o.rehomes[:i], o.rehomes[i+1:]...)
			return
		}
	}
}

// checkDeparted raises (g1) for a placement or start event landing on a
// resource strictly after its leave.
func (o *refObserver) checkDeparted(ev trace.Event) {
	if o.leftAt == nil || ev.Resource == "" {
		return
	}
	if t, gone := o.leftAt[ev.Resource]; gone && ev.Time > t {
		o.add("membership", ev.ReqID, fmt.Sprintf("%s on %s at t=%g, after the resource left at t=%g", ev.Kind, ev.Resource, ev.Time, t))
	}
}

// checkCrashed raises (h) for a placement — dispatch, redispatch,
// migrate-redispatch or reserve-confirm — landing on an agent between
// its peerdown and peerup. Starts stay legal: tasks already executing
// survive their agent's crash.
func (o *refObserver) checkCrashed(ev trace.Event) {
	if t, down := o.down[ev.Resource]; down {
		o.add("crash", ev.ReqID, fmt.Sprintf("%s on %s at t=%g, while the agent was down since t=%g", ev.Kind, ev.Resource, ev.Time, t))
	}
}

// finishMembership raises (g2) for chains still open at the end of the
// run, in observation order.
func (o *refObserver) finishMembership() {
	for _, c := range o.rehomes {
		stage := "rehome-propose"
		if c.detached {
			stage = "rehome-detach"
		}
		o.add("membership", 0, fmt.Sprintf("%s of %s at t=%g never completed its attach: the subtree is between parents", stage, c.agent, c.time))
	}
}

// refCheck is Check over the reference observer.
func refCheck(run Run) Result {
	o := newRefObserver(run.Nodes)
	o.retire = false
	for _, rec := range run.Records {
		o.ObserveRecord(rec)
	}
	for _, d := range run.Dispatches {
		o.ObserveDispatch(d)
	}
	for _, ev := range run.Events {
		o.Observe(ev)
	}
	return o.Finish(run.Report, run.Dropped)
}
