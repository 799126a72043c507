// Package trace records the lifecycle of task requests through the grid —
// arrival, discovery dispatch, execution start and completion — the
// observability layer a production deployment of the paper's system would
// need. Events live in a bounded ring so long experiments cannot exhaust
// memory; the recorder is safe for concurrent use (the networked daemons
// handle requests from multiple connections).
package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies a lifecycle event.
type Kind string

// Lifecycle events.
const (
	KindArrive   Kind = "arrive"   // request entered the grid at an agent
	KindDispatch Kind = "dispatch" // discovery placed the task on a resource
	KindStart    Kind = "start"    // the task began execution
	KindComplete Kind = "complete" // the task completed
	KindFail     Kind = "fail"     // the request could not be placed

	// Fault-run lifecycle events (internal/fault): an agent leaving or
	// rejoining the grid, and a queued task moved off a crashed resource.
	KindPeerDown   Kind = "peerdown"   // an agent crashed / became unreachable
	KindPeerUp     Kind = "peerup"     // a crashed agent recovered
	KindRedispatch Kind = "redispatch" // a pending task was re-placed elsewhere

	// Degradation events (internal/fault): a resource slowing down
	// without leaving the grid, and its later restoration.
	KindDegrade Kind = "degrade" // a resource started running slower than predicted
	KindRestore Kind = "restore" // a degraded resource returned to predicted speed

	// Migration events (internal/core migration policy): a drift-breached
	// scheduler offering an unstarted task back to the grid, the task's
	// removal from the origin queue once a better placement accepted it,
	// and the re-dispatch completing the chain. Every migrate-redispatch
	// is preceded by a migrate-withdraw for the same request, and the
	// audit holds each chain to exactly one final execution.
	KindMigrateOffer      Kind = "migrate-offer"      // origin offered an unstarted task for re-placement
	KindMigrateWithdraw   Kind = "migrate-withdraw"   // the offered task left the origin queue
	KindMigrateRedispatch Kind = "migrate-redispatch" // the offered task was re-placed elsewhere

	// Reservation events (internal/reserve two-phase commit): a node×time
	// window held on a resource, its settlement into a guaranteed-start
	// task, its cancellation, or its TTL expiry. These are booking-level
	// events, not request lifecycle stages — a release or expiry can
	// happen before any request is bound to the booking — so they are not
	// TaskBearing; the audit joins them on the resv= key in Detail.
	KindReserveHold    Kind = "reserve-hold"    // a window was held (phase one)
	KindReserveConfirm Kind = "reserve-confirm" // a held window became a guaranteed-start task
	KindReserveRelease Kind = "reserve-release" // a held or confirmed window was cancelled
	KindReserveExpire  Kind = "reserve-expire"  // a hold outlived its TTL unconfirmed

	// Dynamic-hierarchy events (internal/membership): agents joining and
	// leaving the tree on the virtual clock, and the rebalancer's
	// propose→detach→attach chain moving a subtree under a less-loaded
	// parent. These are grid-level events, not request lifecycle stages,
	// so they are not TaskBearing; a leaving agent's queue drain re-uses
	// the migrate-* chain, which keeps it under the audit's existing
	// no-loss/no-double-run proof. The audit additionally holds every
	// rehome-detach to a same-instant rehome-attach and rejects any
	// dispatch to (or start on) a resource after its leave event.
	KindJoin          Kind = "join"           // an agent attached to the live tree
	KindLeave         Kind = "leave"          // an agent gracefully left the tree
	KindRehomePropose Kind = "rehome-propose" // the rebalancer proposed moving a subtree
	KindRehomeDetach  Kind = "rehome-detach"  // the moved subtree left its old parent
	KindRehomeAttach  Kind = "rehome-attach"  // the moved subtree attached under its new parent
)

// TaskBearing reports whether events of this kind describe the lifecycle
// of one request (as opposed to grid-level events such as peerdown).
func (k Kind) TaskBearing() bool {
	switch k {
	case KindArrive, KindDispatch, KindStart, KindComplete, KindFail, KindRedispatch,
		KindMigrateOffer, KindMigrateWithdraw, KindMigrateRedispatch:
		return true
	}
	return false
}

// Event is one lifecycle observation.
type Event struct {
	Seq  uint64  // monotone sequence number, assigned by the recorder
	Time float64 // virtual time
	Kind Kind
	// ReqID is the grid-wide request identity minted at arrival
	// (core.SubmitAt). It is the join key across every lifecycle stage:
	// scheduler-local task IDs restart at 1 on each resource, so TaskID
	// alone cannot correlate events from different resources.
	ReqID    uint64
	Agent    string // agent involved (arrival/dispatch)
	Resource string // resource involved (dispatch/start/complete)
	TaskID   int    // scheduler-local task ID on Resource (secondary key)
	App      string
	Detail   string // free-form context ("fallback", "hops=2", error text)
}

func (e Event) String() string {
	s := fmt.Sprintf("t=%8.2f %-9s", e.Time, e.Kind)
	if e.Kind.TaskBearing() {
		s += fmt.Sprintf(" req=%d", e.ReqID)
	}
	if e.App != "" {
		s += " app=" + e.App
	}
	if e.TaskID != 0 {
		s += fmt.Sprintf(" task=%d", e.TaskID)
	}
	if e.Agent != "" {
		s += " agent=" + e.Agent
	}
	if e.Resource != "" {
		s += " resource=" + e.Resource
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Sink consumes lifecycle events as they are recorded. The recorder feeds
// its sinks inline, under its lock, with the sequence number already
// assigned — a sink sees exactly the stream a later Events() call would
// return, but one event at a time, so a 1M-request trace can stream to
// disk without retaining the history.
type Sink interface {
	Record(ev Event)
}

// Advancer is implemented by sinks that buffer out-of-order events (record
// order is not virtual-time order — completions carry future end times).
// Advance(now) promises that every event recorded from here on has
// Time >= now, letting the sink flush everything earlier. The grid calls
// it after each clock advance; see core.advanceAll.
type Advancer interface {
	Advance(now float64)
}

// DefaultCapacity bounds the ring when none is given.
const DefaultCapacity = 65536

// Recorder is a bounded, thread-safe event ring.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	next    int // ring write position once full
	full    bool
	cap     int
	seq     uint64
	dropped uint64
	retain  bool
	sinks   []Sink
}

// NewRecorder returns a recorder holding up to capacity events; capacity
// <= 0 selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, retain: true}
}

// AddSink attaches a sink; every subsequent Record feeds it (with Seq
// assigned) before the ring is touched.
func (r *Recorder) AddSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sinks = append(r.sinks, s)
}

// SetRetention toggles the ring. With retention off the recorder still
// assigns sequence numbers and feeds its sinks, but retains nothing —
// the mode for mega-grid runs where the history streams straight to a
// CSVSink and holding it would defeat bounded memory. Events() is empty
// and Dropped() zero in this mode: nothing retained, nothing evicted.
func (r *Recorder) SetRetention(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retain = on
}

// Retaining reports whether the ring currently retains events (see
// SetRetention).
func (r *Recorder) Retaining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retain
}

// Capacity returns the ring capacity.
func (r *Recorder) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cap
}

// Advance forwards a virtual-time watermark to every attached sink that
// buffers on time order (see Advancer).
func (r *Recorder) Advance(now float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sinks {
		if a, ok := s.(Advancer); ok {
			a.Advance(now)
		}
	}
}

// Record appends an event, evicting the oldest when the ring is full.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	for _, s := range r.sinks {
		s.Record(ev)
	}
	if !r.retain {
		return
	}
	if !r.full {
		r.events = append(r.events, ev)
		if len(r.events) == r.cap {
			r.full = true
		}
		return
	}
	r.dropped++
	r.events[r.next] = ev
	r.next = (r.next + 1) % r.cap
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events were evicted from the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events in record order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	if r.full {
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	} else {
		out = append(out, r.events...)
	}
	return out
}

// TaskHistory returns the lifecycle events of one request, in record
// order. It is keyed on the grid-wide request ID: the former
// (resource, taskID) key could not distinguish same-numbered tasks on
// different resources, because scheduler-local IDs restart at 1 on every
// resource.
func (r *Recorder) TaskHistory(reqID uint64) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.ReqID == reqID && ev.Kind.TaskBearing() {
			out = append(out, ev)
		}
	}
	return out
}

// CountByKind tallies retained events.
func (r *Recorder) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, ev := range r.Events() {
		out[ev.Kind]++
	}
	return out
}

// Summary aggregates per-kind counts into a stable one-line description.
func (r *Recorder) Summary() string {
	counts := r.CountByKind()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("%d events", r.Len())
	for _, k := range kinds {
		s += fmt.Sprintf(", %s=%d", k, counts[Kind(k)])
	}
	if d := r.Dropped(); d > 0 {
		s += fmt.Sprintf(", %d dropped", d)
	}
	return s
}
