package scheduler

import (
	"fmt"
	"sort"

	"repro/internal/pace"
	"repro/internal/reserve"
)

// reservedTask is a confirmed reservation waiting for its window: a task
// whose start and end are contractual rather than planned. It bypasses
// the policy entirely — promoteReserved commits it at exactly its booked
// window, and the plan is built around the window instead.
type reservedTask struct {
	taskID    int
	reqID     uint64
	bookingID uint64
	app       *pace.AppModel
	arrival   float64
	mask      uint64 // node mask
	start     float64
	end       float64
}

// ReserveQuote is a resource's offer for an advance reservation: the node
// set and start the scheduler can guarantee. Price, in the reservation
// shopping of the agent layer, is the quoted start — earlier is better.
type ReserveQuote struct {
	Resource string
	Mask     uint64
	Start    float64
	End      float64
}

// Book exposes the reservation book (nil until the first reservation
// reaches this resource). Read-only callers — audit, tests — use it to
// inspect booking state.
func (l *Local) Book() *reserve.Book { return l.book }

func (l *Local) ensureBook() *reserve.Book {
	if l.book == nil {
		l.book = reserve.NewBook(l.cfg.NumNodes)
	}
	return l.book
}

// QuoteReservation returns the earliest window of dur seconds on nodes
// simultaneously free nodes starting no earlier than earliest: free of
// other reservations and past the committed-work floor of each node.
// Quoting changes no state; the window is only protected once held.
func (l *Local) QuoteReservation(nodes int, earliest, dur, now float64) (ReserveQuote, error) {
	if nodes < 1 || nodes > l.cfg.NumNodes {
		return ReserveQuote{}, fmt.Errorf("scheduler: %q: cannot reserve %d of %d nodes", l.cfg.Name, nodes, l.cfg.NumNodes)
	}
	if dur < 0 {
		return ReserveQuote{}, fmt.Errorf("scheduler: %q: negative reservation duration %g", l.cfg.Name, dur)
	}
	l.AdvanceTo(now)
	if earliest < now {
		earliest = now
	}
	// The planner's scratch is free between plans, and FindWindow keeps
	// nothing of it.
	avail := append(l.avail[:0], l.nodeBusy...)
	l.avail = avail
	for i := range avail {
		if now > avail[i] {
			avail[i] = now
		}
	}
	mask, start, ok := l.ensureBook().FindWindow(nodes, earliest, dur, avail, now)
	if !ok {
		return ReserveQuote{}, fmt.Errorf("scheduler: %q: no %d-node window of %gs", l.cfg.Name, nodes, dur)
	}
	return ReserveQuote{Resource: l.cfg.Name, Mask: mask, Start: start, End: start + dur}, nil
}

// HoldReservation places phase one of the two-phase commit: the window
// [start, end) on mask is blocked for ttl seconds of virtual time, during
// which only Confirm or Release can settle it. Best-effort work is
// replanned around the held window immediately — a quote is only a
// guarantee once the plan avoids it.
func (l *Local) HoldReservation(id uint64, holder string, mask uint64, start, end, now, ttl float64) error {
	l.AdvanceTo(now)
	if err := l.ensureBook().Hold(id, holder, mask, start, end, now, ttl); err != nil {
		return err
	}
	l.replan(l.windows())
	l.updateGauges()
	return nil
}

// ConfirmReservation settles a held booking as confirmed and registers
// the guaranteed-start task that will run in its window: app's execution
// occupies exactly [Start, End) on the booked nodes — the window is the
// contract, so neither prediction error nor degradation slowdown moves
// it. It returns the scheduler-local task ID. The plan needs no rebuild:
// the held window was already an immovable constraint.
func (l *Local) ConfirmReservation(id uint64, reqID uint64, app *pace.AppModel, now float64) (int, error) {
	if app == nil {
		return 0, fmt.Errorf("scheduler: %q: nil application model", l.cfg.Name)
	}
	l.AdvanceTo(now)
	if l.book == nil {
		return 0, fmt.Errorf("scheduler: %q: confirm of unknown booking %d", l.cfg.Name, id)
	}
	if err := l.book.Confirm(id, now); err != nil {
		return 0, err
	}
	b, _ := l.book.Get(id)
	l.nextID++
	r := reservedTask{
		taskID:    l.nextID,
		reqID:     reqID,
		bookingID: id,
		app:       app,
		arrival:   now,
		mask:      b.Mask,
		start:     b.Start,
		end:       b.End,
	}
	at := sort.Search(len(l.reserved), func(i int) bool {
		if l.reserved[i].start != r.start {
			return l.reserved[i].start > r.start
		}
		return l.reserved[i].taskID > r.taskID
	})
	l.reserved = append(l.reserved, reservedTask{})
	copy(l.reserved[at+1:], l.reserved[at:])
	l.reserved[at] = r
	l.metrics.TasksSubmitted.Inc()
	l.refreshNextStart()
	if r.start <= now {
		l.promoteReserved(now)
	}
	l.updateGauges()
	return r.taskID, nil
}

// ReleaseReservation cancels a held or confirmed booking; the window
// stops blocking immediately and best-effort work is replanned to use it.
func (l *Local) ReleaseReservation(id uint64, now float64) error {
	l.AdvanceTo(now)
	if l.book == nil {
		return fmt.Errorf("scheduler: %q: release of unknown booking %d", l.cfg.Name, id)
	}
	if err := l.book.Release(id, now); err != nil {
		return err
	}
	for i, r := range l.reserved {
		if r.bookingID == id {
			l.reserved = append(l.reserved[:i], l.reserved[i+1:]...)
			break
		}
	}
	l.replan(l.windows())
	l.updateGauges()
	return nil
}

// ExpireReservations sweeps holds whose TTL the clock has passed, frees
// their windows for best-effort work, and returns them (ordered by
// expiry then ID) so the caller can trace each one. With no book it is
// free — the reservation subsystem costs nothing until used.
func (l *Local) ExpireReservations(now float64) []reserve.Booking {
	if l.book == nil {
		return nil
	}
	l.AdvanceTo(now)
	due := l.book.ExpireDue(now)
	if len(due) > 0 {
		l.replan(l.windows())
		l.updateGauges()
	}
	return due
}

// promoteReserved commits every confirmed reservation whose window start
// the clock has reached. Reserved tasks run exactly their booked window:
// no ActualDuration hook, no degradation slowdown — the guarantee is the
// point, and keeping it deterministic keeps confirmed starts exact even
// under the §5 prediction-error study.
func (l *Local) promoteReserved(now float64) {
	n := 0
	for n < len(l.reserved) && l.reserved[n].start <= now {
		n++
	}
	if n == 0 {
		return
	}
	for _, r := range l.reserved[:n] {
		rec := Record{
			TaskID:    r.taskID,
			ReqID:     r.reqID,
			App:       r.app,
			Arrival:   r.arrival,
			Deadline:  r.end,
			Mask:      r.mask,
			Start:     r.start,
			End:       r.end,
			Resource:  l.cfg.Name,
			Predicted: r.end - r.start,
		}
		l.commit(rec)
	}
	l.reserved = l.reserved[n:]
	l.metrics.TasksStarted.Add(uint64(n))
	l.refreshNextStart()
	l.updateGauges()
}
