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
	"strconv"
	"sync"
)

// Kind classifies a lifecycle event. It is a small integer so that the
// streaming audit can switch on it and fold it into per-request state
// without strings; String and MarshalText give the kind's name, which is
// what every trace file, summary and violation message prints.
type Kind uint8

// Lifecycle events. The zero Kind is no kind: its name is empty.
const (
	KindArrive   Kind = iota + 1 // request entered the grid at an agent
	KindDispatch                 // discovery placed the task on a resource
	KindStart                    // the task began execution
	KindComplete                 // the task completed
	KindFail                     // the request could not be placed

	// Fault-run lifecycle events (internal/fault): an agent leaving or
	// rejoining the grid, and a queued task moved off a crashed resource.
	KindPeerDown   // an agent crashed / became unreachable
	KindPeerUp     // a crashed agent recovered
	KindRedispatch // a pending task was re-placed elsewhere

	// Degradation events (internal/fault): a resource slowing down
	// without leaving the grid, and its later restoration.
	KindDegrade // a resource started running slower than predicted
	KindRestore // a degraded resource returned to predicted speed

	// Migration events (internal/core migration policy): a drift-breached
	// scheduler offering an unstarted task back to the grid, the task's
	// removal from the origin queue once a better placement accepted it,
	// and the re-dispatch completing the chain. Every migrate-redispatch
	// is preceded by a migrate-withdraw for the same request, and the
	// audit holds each chain to exactly one final execution.
	KindMigrateOffer      // origin offered an unstarted task for re-placement
	KindMigrateWithdraw   // the offered task left the origin queue
	KindMigrateRedispatch // the offered task was re-placed elsewhere

	// Reservation events (internal/reserve two-phase commit): a node×time
	// window held on a resource, its settlement into a guaranteed-start
	// task, its cancellation, or its TTL expiry. These are booking-level
	// events, not request lifecycle stages — a release or expiry can
	// happen before any request is bound to the booking — so they are not
	// TaskBearing; the audit joins them on the resv= key in Detail.
	KindReserveHold    // a window was held (phase one)
	KindReserveConfirm // a held window became a guaranteed-start task
	KindReserveRelease // a held or confirmed window was cancelled
	KindReserveExpire  // a hold outlived its TTL unconfirmed

	// Dynamic-hierarchy events (internal/membership): agents joining and
	// leaving the tree on the virtual clock, and the rebalancer's
	// propose→detach→attach chain moving a subtree under a less-loaded
	// parent. These are grid-level events, not request lifecycle stages,
	// so they are not TaskBearing; a leaving agent's queue drain re-uses
	// the migrate-* chain, which keeps it under the audit's existing
	// no-loss/no-double-run proof. The audit additionally holds every
	// rehome-detach to a same-instant rehome-attach and rejects any
	// dispatch to (or start on) a resource after its leave event.
	KindJoin          // an agent attached to the live tree
	KindLeave         // an agent gracefully left the tree
	KindRehomePropose // the rebalancer proposed moving a subtree
	KindRehomeDetach  // the moved subtree left its old parent
	KindRehomeAttach  // the moved subtree attached under its new parent

	kindCount // one past the last kind
)

// kindNames is the name table behind String.
var kindNames = [kindCount]string{
	KindArrive:            "arrive",
	KindDispatch:          "dispatch",
	KindStart:             "start",
	KindComplete:          "complete",
	KindFail:              "fail",
	KindPeerDown:          "peerdown",
	KindPeerUp:            "peerup",
	KindRedispatch:        "redispatch",
	KindDegrade:           "degrade",
	KindRestore:           "restore",
	KindMigrateOffer:      "migrate-offer",
	KindMigrateWithdraw:   "migrate-withdraw",
	KindMigrateRedispatch: "migrate-redispatch",
	KindReserveHold:       "reserve-hold",
	KindReserveConfirm:    "reserve-confirm",
	KindReserveRelease:    "reserve-release",
	KindReserveExpire:     "reserve-expire",
	KindJoin:              "join",
	KindLeave:             "leave",
	KindRehomePropose:     "rehome-propose",
	KindRehomeDetach:      "rehome-detach",
	KindRehomeAttach:      "rehome-attach",
}

// String returns the kind's name ("arrive", "migrate-offer", ...); the
// zero Kind's name is empty.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// taskBearing has bit k set for every kind that describes one request's
// lifecycle.
const taskBearing = 1<<KindArrive | 1<<KindDispatch | 1<<KindStart | 1<<KindComplete | 1<<KindFail |
	1<<KindRedispatch | 1<<KindMigrateOffer | 1<<KindMigrateWithdraw | 1<<KindMigrateRedispatch

// TaskBearing reports whether events of this kind describe the lifecycle
// of one request (as opposed to grid-level events such as peerdown).
func (k Kind) TaskBearing() bool { return uint32(taskBearing)>>k&1 != 0 }

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
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	s := fmt.Sprintf("%d events", r.Len())
	for _, k := range kinds {
		s += fmt.Sprintf(", %s=%d", k, counts[k])
	}
	if d := r.Dropped(); d > 0 {
		s += fmt.Sprintf(", %d dropped", d)
	}
	return s
}
