package sim

import (
	"fmt"
	"math"
)

// Event is a callback scheduled to run at a virtual time. Events at equal
// times run in the order they were scheduled (FIFO tie-break via sequence
// numbers), which keeps simulations deterministic.
type Event struct {
	At  float64
	seq uint64
	Run func(now float64)
}

// eventLess orders the queue by (At, seq): a total order, so equal
// times run in scheduling order.
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Simulator couples a virtual clock with an event queue. It is the driver
// for the case-study experiments: workload arrivals, agent advertisement
// pulls and scheduler wake-ups are all simulator events.
//
// Simulator is not safe for concurrent use; the case study is a sequential
// discrete-event simulation (the paper's agents are concurrent processes,
// but under test mode their interleaving is fixed by the event order).
type Simulator struct {
	clock    Clock
	queue    Heap[Event]
	seq      uint64
	executed uint64
}

// NewSimulator returns an empty simulator at virtual time 0.
func NewSimulator() *Simulator { return &Simulator{queue: NewHeap(eventLess)} }

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.clock.Now() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a causality bug in the caller.
func (s *Simulator) At(t float64, fn func(now float64)) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("sim: event scheduled in the past: at=%v now=%v", t, s.clock.Now()))
	}
	s.seq++
	s.queue.Push(Event{At: t, seq: s.seq, Run: fn})
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func(now float64)) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.At(s.clock.Now()+d, fn)
}

// Every schedules fn to run now+d, now+2d, ... until fn returns false.
func (s *Simulator) Every(d float64, fn func(now float64) bool) {
	if d <= 0 {
		panic("sim: non-positive period")
	}
	var tick func(now float64)
	tick = func(now float64) {
		if fn(now) {
			s.After(d, tick)
		}
	}
	s.After(d, tick)
}

// Pending reports the number of queued events.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Executed reports the number of events run so far — the numerator of a
// simulated-events-per-second throughput figure.
func (s *Simulator) Executed() uint64 { return s.executed }

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (s *Simulator) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := s.queue.Pop()
	s.clock.Advance(e.At)
	s.executed++
	e.Run(e.At)
	return true
}

// RunUntil executes events with At <= t in order, then advances the clock
// to exactly t.
func (s *Simulator) RunUntil(t float64) {
	for s.queue.Len() > 0 && s.queue.Min().At <= t {
		s.Step()
	}
	s.clock.Advance(t)
}

// RunAll drains the event queue. maxEvents bounds the number of events to
// protect against runaway self-rescheduling loops; pass 0 for the default
// of 10 million. Callers whose workloads legitimately exceed the default
// (mega-grid scenarios) must derive and pass an explicit bound — see
// core.Run — rather than rely on the default and truncate silently.
func (s *Simulator) RunAll(maxEvents int) {
	if maxEvents <= 0 {
		maxEvents = 10_000_000
	}
	for i := 0; i < maxEvents; i++ {
		if !s.Step() {
			return
		}
	}
	panic(fmt.Sprintf("sim: RunAll exceeded event budget of %d; runaway event loop?", maxEvents))
}

// NextEventAt returns the time of the earliest pending event, or +Inf when
// the queue is empty.
func (s *Simulator) NextEventAt() float64 {
	if s.queue.Len() == 0 {
		return math.Inf(1)
	}
	return s.queue.Min().At
}
