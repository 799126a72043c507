package audit

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// Observer is the streaming form of Check: it consumes lifecycle events,
// execution records and dispatch-log entries as the run produces them and
// proves the same invariants (a)–(e) holding only O(in-flight) state. A
// request's per-lifecycle state is retired the moment its terminal event
// (complete or fail) is observed, and each node's exclusivity intervals
// are pruned as the virtual clock's safe horizon advances, so a
// 1M-request run audits in memory bounded by the in-flight window, not
// the run length.
//
// Feeding contract (the grid satisfies it naturally): a request's
// execution record is observed before its start/complete events (the
// executor emits the record at promotion, then the events), and a
// dispatch-log entry before its dispatch event. Advance(now) promises
// every record observed from here on starts at or after now — the grid
// calls it after each clock advance, when no planned start at or before
// now remains unpromoted.
//
// State layout. Resources are indexed once, in NewObserver: one
// name → index lookup per record or event reaches a resource struct
// holding its node count, membership and crash state, and its per-node
// states (busy sum and interval list). A name that is not in the node
// table is given an index the first time it is seen (a forged stream or
// an agent without a resource), and a record on it is still an unknown
// resource. Per-request states are pointer-free values in a slab with a
// free list, reached through a map from request ID to slab index, so the
// collector never scans them; the rare second arrival, dispatch-log entry
// or dispatch event of one request, and record-agreement violations, go
// to side storage that only malformed streams reach.
//
// Observer is not safe for concurrent use; the grid serialises all
// observation on the simulation loop.
type Observer struct {
	// retire controls early retirement. Live runs retire a request at
	// its terminal event; the Check replay keeps state to the end so a
	// malformed trace (events after a terminal) is judged with full
	// context, exactly as the batch auditor did.
	retire bool

	counts    Counts
	stream    []Violation // violations in observation order
	anyEvents bool

	// Resources: res[:nStatic] are the node table's; later entries are
	// names first seen at run time. spills holds the node interval lists
	// longer than one (see nodeState).
	resIdx   map[string]int32
	res      []resource
	nStatic  int32
	spills   [][]interval
	lastName string // one-entry cache in front of resIdx
	lastRes  int32

	// horizon is the latest Advance watermark; an interval that ended at
	// or before it can no longer overlap a record still to come.
	horizon float64

	// In-flight request states: inflight maps a request ID to its slot
	// in states; free lists released slots. lastID/lastSlot cache the
	// most recent lookup, since a request's stages arrive in runs (arrive,
	// log entry, dispatch; record, start, complete).
	inflight map[uint64]int32
	states   [][]reqState // chunks of stateChunk slots
	nStates  int32        // slots ever handed out
	free     []int32
	lastID   uint64
	lastSlot int32
	extra    map[uint64]*reqExtra

	retired    bitset
	retiredBig map[uint64]bool // ids too large for the bitset

	// streaming §3.3 recomputation: unclipped per-node busy sums (in
	// nodes) plus the record span, checked against the report window at
	// Finish.
	advance  float64
	tasks    int
	minStart float64
	maxEnd   float64

	dispatchIdx int // running index into the dispatch log (for identity messages)
	peakStates  int

	// reservation bookings by resource and reservation ID, plus their
	// observation order for a deterministic Finish (see reserve.go).
	resv      map[string]map[uint64]*resvBooking
	resvOrder []*resvBooking

	// dynamic-membership and crash state beyond the per-resource flags
	// (see membership.go): whether any leave or crash is in force, so
	// the common path skips the lookup, and the open re-homing chains.
	anyLeft bool
	nDown   int
	rehomes []*rehomeChain
}

// resource is one named resource's audit state.
type resource struct {
	name   string
	n      int  // node count from the table (0 for names seen at run time)
	static bool // in the node table given to NewObserver
	// nodes holds per-node state, allocated at the resource's first
	// record; nodes past maxNodes have none.
	nodes []nodeState

	present bool // joined at run time and not left since
	left    bool
	leftAt  float64
	down    bool
	downAt  float64
}

// maxNodes is the width of a record's node mask: nodes past it can never
// be allocated, so they get no state (their busy sum stays zero).
const maxNodes = 64

// nodeState is one physical node's exclusivity intervals, sorted by
// (start, end), and its unclipped busy sum. After pruning, a node of a
// real run holds at most its running task, so one interval lives inline;
// a longer list lives in Observer.spills[spill-1]. The struct holds no
// pointers, so the collector skips a resource's node states.
type nodeState struct {
	n     int32 // intervals held: in one when n == 1, in the spill when n > 1
	spill int32 // 1 + index into Observer.spills; 0 before the node first spills
	// unordered marks a list that has held a NaN time: the order is no
	// longer total, so insertion always takes the binary search.
	unordered bool
	busy      float64
	one       interval
}

type interval struct {
	start, end float64
	reqID      uint64
	taskID     int
}

// dispatchKey is a (resource index, task ID) placement.
type dispatchKey struct {
	res    int32
	taskID int
}

// reqState is one in-flight request's lifecycle state — everything the
// per-request checks of the batch auditor derive from the full event
// list, folded incrementally. It holds no pointers: kinds are bytes,
// resources are indices, and the first arrival, dispatch-log entry and
// dispatch event are stored inline (later ones in reqExtra).
type reqState struct {
	eventCount int32
	arrives    int32
	dispatches int32
	redisp     int32
	starts     int32
	completes  int32
	fails      int32
	migOffers  int32
	migWith    int32
	migRedisp  int32
	recCount   int32

	// migration-chain scan state (checkMigrationChain, folded).
	pendingWithdraw int32

	firstKind   trace.Kind
	prevKind    trace.Kind
	finalKind   trace.Kind
	migrateSeen bool
	hasFinal    bool
	hasResv     bool
	hasExtra    bool

	prevTime float64
	arrive0  float64 // first arrival time

	// first observed record, as far as the checks read it.
	rec struct {
		start, end, arrival float64
		res                 int32
		taskID              int
	}

	// final placement decision (dispatch / redispatch / migrate-redispatch),
	// which is also the latest placement the migration checks read.
	finalRes    int32
	finalTaskID int

	// dispatch-log entries logged for this request, and the dispatch
	// events seen to match them against at finalisation: the first of
	// each inline.
	nLogged int32
	nSeen   int32
	logged0 dispatchKey
	seen0   dispatchKey

	// confirmed-reservation window bound to this request (audit (f2)).
	resvStart, resvEnd float64
}

// reqExtra is a request's state beyond reqState's inline slots.
type reqExtra struct {
	arrives   []float64     // arrival times after the first
	logged    []dispatchKey // dispatch-log entries after the first
	seen      []dispatchKey // dispatch events after the first
	agreement []Violation   // record-agreement violations, valid only if recCount stays 1
}

// noExtra stands in for the side storage of a request that has none.
var noExtra reqExtra

// NewObserver returns a streaming auditor for a grid with the given node
// counts per resource. The table is read once, here.
func NewObserver(nodes map[string]int) *Observer {
	o := &Observer{
		retire:   true,
		resIdx:   make(map[string]int32, len(nodes)),
		res:      make([]resource, 0, len(nodes)),
		nStatic:  int32(len(nodes)),
		lastRes:  -1,
		horizon:  math.Inf(-1),
		inflight: map[uint64]int32{},
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
	for name, n := range nodes {
		o.resIdx[name] = int32(len(o.res))
		o.res = append(o.res, resource{name: name, n: n, static: true})
	}
	return o
}

func (o *Observer) add(check string, reqID uint64, detail string) {
	o.stream = append(o.stream, Violation{Check: check, ReqID: reqID, Detail: detail})
}

// lookup returns the index of a resource name, if it has one.
func (o *Observer) lookup(name string) (int32, bool) {
	if o.lastRes >= 0 && name == o.lastName {
		return o.lastRes, true
	}
	r, ok := o.resIdx[name]
	if ok {
		o.lastName, o.lastRes = name, r
	}
	return r, ok
}

// intern returns the index of a resource name, giving a name outside the
// node table one the first time it is seen.
func (o *Observer) intern(name string) int32 {
	if r, ok := o.lookup(name); ok {
		return r
	}
	r := int32(len(o.res))
	o.res = append(o.res, resource{name: name})
	o.resIdx[name] = r
	return r
}

// state returns (creating if needed) the in-flight state for a request.
func (o *Observer) state(id uint64) *reqState {
	if id != o.lastID {
		i, ok := o.inflight[id]
		if !ok {
			if n := len(o.free); n > 0 {
				i = o.free[n-1]
				o.free = o.free[:n-1]
			} else {
				i = o.nStates
				o.nStates++
				if int(i)/stateChunk == len(o.states) {
					o.states = append(o.states, make([]reqState, stateChunk))
				}
			}
			*o.stateAt(i) = reqState{}
			o.inflight[id] = i
			if len(o.inflight) > o.peakStates {
				o.peakStates = len(o.inflight)
			}
		}
		o.lastID, o.lastSlot = id, i
	}
	return o.stateAt(o.lastSlot)
}

// stateChunk is the slab's growth step: chunks are added, never copied,
// so the slab's footprint is its peak in-flight count.
const stateChunk = 512

func (o *Observer) stateAt(i int32) *reqState {
	return &o.states[i/stateChunk][i%stateChunk]
}

// extraOf returns (creating if needed) a request's side storage.
func (o *Observer) extraOf(id uint64, s *reqState) *reqExtra {
	if !s.hasExtra {
		if o.extra == nil {
			o.extra = map[uint64]*reqExtra{}
		}
		o.extra[id] = &reqExtra{}
		s.hasExtra = true
	}
	return o.extra[id]
}

// release drops a request's state once it has been finalised.
func (o *Observer) release(id uint64) {
	i := o.inflight[id]
	if o.stateAt(i).hasExtra {
		delete(o.extra, id)
	}
	delete(o.inflight, id)
	o.free = append(o.free, i)
	if o.lastID == id {
		o.lastID = 0
	}
}

func (o *Observer) isRetired(id uint64) bool {
	if o.retiredBig != nil && o.retiredBig[id] {
		return true
	}
	return o.retired.has(id)
}

func (o *Observer) markRetired(id uint64) {
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

// Record implements trace.Sink so the observer can be attached straight
// to a trace recorder.
func (o *Observer) Record(ev trace.Event) { o.Observe(ev) }

// Observe folds one lifecycle event into the audit.
func (o *Observer) Observe(ev trace.Event) {
	o.anyEvents = true
	switch ev.Kind {
	case trace.KindPeerDown:
		r := &o.res[o.intern(ev.Agent)]
		if !r.down {
			o.nDown++
		}
		r.down, r.downAt = true, ev.Time
		return
	case trace.KindPeerUp:
		if i, ok := o.lookup(ev.Agent); ok && o.res[i].down {
			o.res[i].down = false
			o.nDown--
		}
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
		if s.arrives == 0 {
			s.arrive0 = ev.Time
		} else {
			x := o.extraOf(ev.ReqID, s)
			x.arrives = append(x.arrives, ev.Time)
		}
		s.arrives++
	case trace.KindDispatch:
		s.dispatches++
		key := o.place(s, ev)
		if s.nSeen == 0 {
			s.seen0 = key
		} else {
			x := o.extraOf(ev.ReqID, s)
			x.seen = append(x.seen, key)
		}
		s.nSeen++
	case trace.KindRedispatch:
		s.redisp++
		o.place(s, ev)
	case trace.KindStart:
		s.starts++
		if s.migrateSeen {
			if s.pendingWithdraw > 0 {
				o.add("conservation", ev.ReqID, "task started while withdrawn from every queue")
			}
			if placed := o.placedName(s); placed != "" && ev.Resource != placed {
				o.add("placement", ev.ReqID, fmt.Sprintf("task started on %s but was last placed on %s", ev.Resource, placed))
			}
		}
		if s.recCount == 1 {
			rec := &s.rec
			if name := o.res[rec.res].name; ev.Time != rec.start || ev.Resource != name || ev.TaskID != rec.taskID {
				x := o.extraOf(ev.ReqID, s)
				x.agreement = append(x.agreement, Violation{Check: "timing", ReqID: ev.ReqID,
					Detail: fmt.Sprintf("start event (t=%g, %s task %d) disagrees with record (t=%g, %s task %d)",
						ev.Time, ev.Resource, ev.TaskID, rec.start, name, rec.taskID)})
			}
		}
	case trace.KindComplete:
		s.completes++
		if s.recCount == 1 {
			rec := &s.rec
			if name := o.res[rec.res].name; ev.Time != rec.end || ev.Resource != name {
				x := o.extraOf(ev.ReqID, s)
				x.agreement = append(x.agreement, Violation{Check: "timing", ReqID: ev.ReqID,
					Detail: fmt.Sprintf("complete event (t=%g, %s) disagrees with record (t=%g, %s)",
						ev.Time, ev.Resource, rec.end, name)})
			}
		}
	case trace.KindFail:
		s.fails++
	case trace.KindMigrateOffer:
		s.migOffers++
		s.migrateSeen = true
		if placed := o.placedName(s); placed != "" && ev.Resource != placed {
			o.add("conservation", ev.ReqID, fmt.Sprintf("migrate-offer from %s but the task was placed on %s", ev.Resource, placed))
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
		if placed := o.placedName(s); placed != "" && ev.Resource != placed {
			o.add("conservation", ev.ReqID, fmt.Sprintf("migrate-withdraw from %s but the task was placed on %s", ev.Resource, placed))
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
		o.place(s, ev)
	}

	if o.retire && (ev.Kind == trace.KindComplete || ev.Kind == trace.KindFail) {
		o.finalize(ev.ReqID, s)
		o.release(ev.ReqID)
		o.markRetired(ev.ReqID)
	}
}

// place records a placement event as the request's latest placement and
// final decision, and returns it as a dispatch key.
func (o *Observer) place(s *reqState, ev trace.Event) dispatchKey {
	r := o.intern(ev.Resource)
	s.hasFinal = true
	s.finalKind = ev.Kind
	s.finalRes, s.finalTaskID = r, ev.TaskID
	return dispatchKey{r, ev.TaskID}
}

// placedName is the resource of the request's latest placement, or "".
func (o *Observer) placedName(s *reqState) string {
	if !s.hasFinal {
		return ""
	}
	return o.res[s.finalRes].name
}

func (o *Observer) countEvent(k trace.Kind) {
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
// record timing (c), node exclusivity (b) via sorted-interval insertion,
// and the §3.3 accumulators for the metrics recomputation (e).
func (o *Observer) ObserveRecord(rec scheduler.Record) {
	o.counts.Records++

	// (c) on the record itself.
	if rec.Start < rec.Arrival {
		o.add("timing", rec.ReqID, fmt.Sprintf("task %d on %s starts at t=%g before its arrival t=%g", rec.TaskID, rec.Resource, rec.Start, rec.Arrival))
	}
	if rec.End < rec.Start {
		o.add("timing", rec.ReqID, fmt.Sprintf("task %d on %s ends at t=%g before its start t=%g", rec.TaskID, rec.Resource, rec.End, rec.Start))
	}

	// (b) exclusivity, and (e) accumulation, for known resources.
	ri := o.intern(rec.Resource)
	r := &o.res[ri]
	switch {
	case !r.static:
		o.add("exclusivity", rec.ReqID, fmt.Sprintf("record on unknown resource %q", rec.Resource))
	case rec.Mask == 0:
		o.add("exclusivity", rec.ReqID, fmt.Sprintf("record task %d on %s allocates no nodes", rec.TaskID, rec.Resource))
	default:
		for m := rec.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if i >= r.n {
				o.add("exclusivity", rec.ReqID, fmt.Sprintf("record task %d uses node %d of %d on %s", rec.TaskID, i, r.n, rec.Resource))
				continue
			}
			if r.nodes == nil {
				r.nodes = make([]nodeState, min(r.n, maxNodes))
			}
			ns := &r.nodes[i]
			o.insertInterval(ns, interval{rec.Start, rec.End, rec.ReqID, rec.TaskID}, rec.Resource, i)
			if rec.End > rec.Start {
				ns.busy += rec.End - rec.Start
			}
		}
	}
	if r.static {
		o.tasks++
		o.advance += rec.Deadline - rec.End
		if rec.Start < o.minStart {
			o.minStart = rec.Start
		}
		if rec.End > o.maxEnd {
			o.maxEnd = rec.End
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
		s.rec.start, s.rec.end, s.rec.arrival = rec.Start, rec.End, rec.Arrival
		s.rec.res, s.rec.taskID = ri, rec.TaskID
	}
}

// insertInterval places iv into the node's (start, end)-sorted interval
// list, flagging overlap with its neighbours. Blame follows the batch
// auditor's convention: the interval sorting later is reported against
// the one before it.
//
// The node first drops the prefix of its list that ended at or before the
// horizon: no record still to come starts before the horizon, so those
// intervals can overlap nothing. Real runs fill each node in start order,
// so the list then holds the node's running task at most, and the new
// interval sorts last and is appended; out-of-order (forged) input takes
// the binary search.
func (o *Observer) insertInterval(ns *nodeState, iv interval, resource string, node int) {
	if iv.start != iv.start || iv.end != iv.end {
		ns.unordered = true
	}
	if ns.n <= 1 && !ns.unordered {
		if ns.n == 1 && ns.one.end <= o.horizon {
			ns.n = 0
		}
		if ns.n == 0 {
			ns.one, ns.n = iv, 1
			return
		}
		if !sortsAfter(ns.one, iv) {
			if iv.start < ns.one.end {
				o.overlap(iv, ns.one, resource, node)
			}
			o.setList(ns, append(o.spillOf(ns), ns.one, iv))
			return
		}
	}

	ivs := o.spillOf(ns)
	switch {
	case ns.n == 1:
		ivs = append(ivs, ns.one)
	case ns.n > 1:
		ivs = ivs[:ns.n]
	}
	j := 0
	for j < len(ivs) && ivs[j].end <= o.horizon {
		j++
	}
	if j > 0 {
		ivs = append(ivs[:0], ivs[j:]...)
	}
	pos := len(ivs)
	if ns.unordered || pos > 0 && sortsAfter(ivs[pos-1], iv) {
		pos = sort.Search(len(ivs), func(i int) bool { return sortsAfter(ivs[i], iv) })
	}
	if pos > 0 && iv.start < ivs[pos-1].end {
		o.overlap(iv, ivs[pos-1], resource, node)
	}
	if pos < len(ivs) && ivs[pos].start < iv.end {
		o.overlap(ivs[pos], iv, resource, node)
	}
	ivs = append(ivs, interval{})
	copy(ivs[pos+1:], ivs[pos:])
	ivs[pos] = iv
	o.setList(ns, ivs)
}

// spillOf returns the node's spill buffer, emptied.
func (o *Observer) spillOf(ns *nodeState) []interval {
	if ns.spill == 0 {
		return nil
	}
	return o.spills[ns.spill-1][:0]
}

// setList stores a node's non-empty list: a single interval inline, more
// in the spill buffer, which keeps its capacity either way.
func (o *Observer) setList(ns *nodeState, ivs []interval) {
	ns.n = int32(len(ivs))
	if len(ivs) == 1 {
		ns.one = ivs[0]
	}
	if ns.spill == 0 {
		o.spills = append(o.spills, nil)
		ns.spill = int32(len(o.spills))
	}
	o.spills[ns.spill-1] = ivs
}

// overlap reports that later, which sorts after earlier on the node,
// overlaps it.
func (o *Observer) overlap(later, earlier interval, resource string, node int) {
	o.add("exclusivity", later.reqID, fmt.Sprintf(
		"task %d [%g, %g) overlaps task %d (req %d) [%g, %g) on %s node %d",
		later.taskID, later.start, later.end, earlier.taskID, earlier.reqID, earlier.start, earlier.end, resource, node))
}

// sortsAfter reports whether a sorts strictly after b in (start, end)
// order.
func sortsAfter(a, b interval) bool {
	if a.start != b.start {
		return a.start > b.start
	}
	return a.end > b.end
}

// ObserveDispatch folds one dispatch-log entry; it is matched against the
// request's dispatch events at finalisation.
func (o *Observer) ObserveDispatch(d agent.Dispatch) {
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
	key := dispatchKey{o.intern(d.Resource), d.TaskID}
	s := o.state(d.ReqID)
	if s.nLogged == 0 {
		s.logged0 = key
	} else {
		x := o.extraOf(d.ReqID, s)
		x.logged = append(x.logged, key)
	}
	s.nLogged++
}

// Advance records the grid's post-advance safe horizon — the caller
// promises every record observed from here on starts at or after now.
// Intervals that ended by then are dropped node by node, when the node
// next gets an interval (insertInterval), so Advance itself is O(1):
// the grid calls it on every event.
func (o *Observer) Advance(now float64) {
	if now > o.horizon {
		o.horizon = now
	}
}

// finalize runs the end-of-lifecycle checks the batch auditor performs in
// checkRequest, over the folded state.
func (o *Observer) finalize(id uint64, s *reqState) {
	x := &noExtra
	if s.hasExtra {
		x = o.extra[id]
	}
	if s.eventCount == 0 {
		if s.recCount > 0 {
			o.add("conservation", id, "execution record without any lifecycle events")
		}
		if o.anyEvents {
			for range s.nLogged {
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

	rec := &s.rec
	if s.recCount == 1 && s.hasResv {
		// (f2) a confirmed reservation executes within its booked window.
		if rec.start < s.resvStart || rec.start >= s.resvEnd {
			o.add("reservation", id, fmt.Sprintf("reserved task %d on %s started at t=%g, outside its booked window [%g,%g)",
				rec.taskID, o.res[rec.res].name, rec.start, s.resvStart, s.resvEnd))
		}
	}

	if s.recCount == 1 {
		// (c) the record must agree with its lifecycle events.
		if s.arrives > 0 {
			o.checkArrival(id, s.arrive0, rec.arrival)
		}
		for _, at := range x.arrives {
			o.checkArrival(id, at, rec.arrival)
		}
		o.stream = append(o.stream, x.agreement...)
		// (d) the final placement decision must name the executing resource.
		if s.hasFinal && (s.finalRes != rec.res || s.finalTaskID != rec.taskID) {
			o.add("placement", id, fmt.Sprintf("final %s targeted %s task %d but the execution record is %s task %d",
				s.finalKind, o.res[s.finalRes].name, s.finalTaskID, o.res[rec.res].name, rec.taskID))
		}
	}

	// (d) each logged dispatch must match a dispatch event.
	for i := range s.nLogged {
		d := s.logged0
		if i > 0 {
			d = x.logged[i-1]
		}
		matched := false
		for j := range s.nSeen {
			k := s.seen0
			if j > 0 {
				k = x.seen[j-1]
			}
			if k == d {
				matched = true
				break
			}
		}
		if !matched {
			o.add("placement", id, fmt.Sprintf("dispatch log names %s task %d but no dispatch event agrees", o.res[d.res].name, d.taskID))
		}
	}
}

// checkArrival holds a record's arrival to a grid arrival of its request.
func (o *Observer) checkArrival(id uint64, at, recArrival float64) {
	if at > recArrival {
		o.add("timing", id, fmt.Sprintf("record arrival t=%g precedes the grid arrival t=%g", recArrival, at))
	}
}

// InFlight reports the number of live request states — the audit's
// working-set size, which stays at the in-flight window on real runs.
func (o *Observer) InFlight() int { return len(o.inflight) }

// PeakInFlight reports the high-water mark of live request states.
func (o *Observer) PeakInFlight() int { return o.peakStates }

// Finish finalises every request still in flight, recomputes the §3.3
// totals against the report, and returns the verdict. The observer must
// not be fed after Finish.
func (o *Observer) Finish(report metrics.GridReport, dropped uint64) Result {
	var res Result
	if dropped > 0 {
		res.Truncated = true
		res.Violations = append(res.Violations, Violation{Check: "trace", ReqID: 0,
			Detail: fmt.Sprintf("event ring dropped %d events; conservation is unprovable (size the recorder to the workload)", dropped)})
	}

	// Finalise survivors in request order for a deterministic report.
	live := make([]uint64, 0, len(o.inflight))
	for id := range o.inflight {
		live = append(live, id)
	}
	slices.Sort(live)
	for _, id := range live {
		o.finalize(id, o.stateAt(o.inflight[id]))
		o.release(id)
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
func (o *Observer) checkMetrics(report metrics.GridReport) {
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
	static := slices.Clone(o.res[:o.nStatic])
	slices.SortFunc(static, func(a, b resource) int { return strings.Compare(a.name, b.name) })
	var util []float64
	for _, r := range static {
		for i := 0; i < r.n; i++ {
			var b float64
			if i < len(r.nodes) {
				b = r.nodes[i].busy
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

// bitset is a growable bit set for retired request IDs (minted densely
// from 1 by the grid).
type bitset []uint64

func (b *bitset) set(id uint64) {
	w := id >> 6
	for uint64(len(*b)) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (id & 63)
}

func (b bitset) has(id uint64) bool {
	w := id >> 6
	if w >= uint64(len(b)) {
		return false
	}
	return b[w]&(1<<(id&63)) != 0
}
