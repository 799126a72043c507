// Package reserve implements advance reservation of grid resources: a
// per-resource reservation book holding node×time bookings, with the
// two-phase hold → confirm/release protocol the agent layer shops with.
//
// A reservation is an immovable claim on a node set over a half-open
// time window [Start, End). The book admits a booking only if it does
// not overlap any other active booking on a shared node; the scheduler
// then plans best-effort work around the booked windows (see
// schedule.AdjustStart), so a confirmed reservation's start time is a
// guarantee, not a prediction. Holds carry a TTL on the virtual clock:
// a hold that is neither confirmed nor released by its expiry stops
// blocking the window the instant the clock passes it.
//
// The model follows "Advance Reservation of Resources for Task
// Execution in Grid Environments" (arXiv:1106.5310): admission is a
// pure interval check against prior bookings, and co-allocation (the
// agent layer reserving node sets on several resources for one common
// window) is built from per-resource holds that either all confirm or
// all release.
package reserve

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/schedule"
)

// State is a booking's lifecycle state.
type State uint8

const (
	// Held is the first phase of the two-phase commit: the window is
	// blocked, but the booking evaporates at ExpiresAt unless confirmed.
	Held State = iota
	// Confirmed bookings block their window unconditionally until
	// released; the scheduler turns them into guaranteed-start tasks.
	Confirmed
	// Released bookings were cancelled by their holder (from either the
	// held or the confirmed state) and block nothing.
	Released
	// Expired holds ran past their TTL without a confirm and block
	// nothing.
	Expired
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Held:
		return "held"
	case Confirmed:
		return "confirmed"
	case Released:
		return "released"
	case Expired:
		return "expired"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Booking is one reservation in a resource's book.
type Booking struct {
	ID     uint64 // grid-wide reservation identity, minted by the caller
	Holder string // requester identity (the contact email of Fig. 6)
	Mask   uint64 // reserved node set, bit i = node i
	Start  float64
	End    float64
	State  State
	// ExpiresAt is the hold's TTL deadline on the virtual clock; it is
	// meaningless once the booking leaves the held state.
	ExpiresAt float64
}

// Active reports whether the booking blocks its window at time now.
func (b Booking) Active(now float64) bool {
	switch b.State {
	case Held:
		return now < b.ExpiresAt
	case Confirmed:
		return true
	}
	return false
}

// Book is one resource's reservation book. It is not safe for
// concurrent use; callers serialise access exactly as they do for the
// local scheduler that shares its node pool.
//
// Bookings are never removed: a released or expired one stays for Get.
// Every scan walks list, in insertion order, so iteration is
// deterministic and costs no lookup; byID only answers Get, Confirm and
// Release.
type Book struct {
	numNodes int
	list     []Booking
	byID     map[uint64]int // booking ID → index in list
	cands    []float64      // FindWindow's candidate starts, reused
}

// NewBook returns an empty book over numNodes nodes.
func NewBook(numNodes int) *Book {
	if numNodes < 1 || numNodes > schedule.MaxNodes {
		panic(fmt.Sprintf("reserve: node count %d outside [1, %d]", numNodes, schedule.MaxNodes))
	}
	return &Book{numNodes: numNodes, byID: map[uint64]int{}}
}

// booking returns the booking with the given ID, or nil.
func (bk *Book) booking(id uint64) *Booking {
	i, ok := bk.byID[id]
	if !ok {
		return nil
	}
	return &bk.list[i]
}

// NumNodes returns the size of the node pool the book covers.
func (bk *Book) NumNodes() int { return bk.numNodes }

// Hold admits a new booking in the held state, or explains why not. The
// admission check is purely against other active bookings: feasibility
// against already-committed best-effort work is the scheduler's job
// (it quotes the window via FindWindow before holding).
func (bk *Book) Hold(id uint64, holder string, mask uint64, start, end, now, ttl float64) error {
	if _, dup := bk.byID[id]; dup {
		return fmt.Errorf("reserve: booking %d already exists", id)
	}
	if mask == 0 {
		return fmt.Errorf("reserve: booking %d reserves no nodes", id)
	}
	if highest := bits.Len64(mask); highest > bk.numNodes {
		return fmt.Errorf("reserve: booking %d uses node %d of %d", id, highest-1, bk.numNodes)
	}
	if end < start {
		return fmt.Errorf("reserve: booking %d window ends (%g) before it starts (%g)", id, end, start)
	}
	if start < now {
		return fmt.Errorf("reserve: booking %d starts at %g, in the past of %g", id, start, now)
	}
	if ttl <= 0 {
		return fmt.Errorf("reserve: booking %d needs a positive hold TTL", id)
	}
	for i := range bk.list {
		o := &bk.list[i]
		if !o.Active(now) || o.Mask&mask == 0 {
			continue
		}
		if (schedule.Window{Start: o.Start, End: o.End}).Overlaps(start, end) {
			return fmt.Errorf("reserve: booking %d [%g, %g) overlaps booking %d [%g, %g) on shared nodes",
				id, start, end, o.ID, o.Start, o.End)
		}
	}
	bk.byID[id] = len(bk.list)
	bk.list = append(bk.list, Booking{
		ID: id, Holder: holder, Mask: mask,
		Start: start, End: end, State: Held, ExpiresAt: now + ttl,
	})
	return nil
}

// Confirm moves a live hold to the confirmed state.
func (bk *Book) Confirm(id uint64, now float64) error {
	b := bk.booking(id)
	if b == nil {
		return fmt.Errorf("reserve: confirm of unknown booking %d", id)
	}
	if b.State != Held {
		return fmt.Errorf("reserve: confirm of booking %d in state %s", id, b.State)
	}
	if now >= b.ExpiresAt {
		b.State = Expired
		return fmt.Errorf("reserve: confirm of booking %d after its hold expired at %g", id, b.ExpiresAt)
	}
	b.State = Confirmed
	return nil
}

// Release cancels a held or confirmed booking; its window stops
// blocking immediately.
func (bk *Book) Release(id uint64, now float64) error {
	b := bk.booking(id)
	if b == nil {
		return fmt.Errorf("reserve: release of unknown booking %d", id)
	}
	switch b.State {
	case Held:
		if now >= b.ExpiresAt {
			b.State = Expired
			return fmt.Errorf("reserve: release of booking %d after its hold expired at %g", id, b.ExpiresAt)
		}
	case Confirmed:
	default:
		return fmt.Errorf("reserve: release of booking %d in state %s", id, b.State)
	}
	b.State = Released
	return nil
}

// ExpireDue marks every held booking whose TTL the clock has passed as
// expired and returns them ordered by (expiry, ID), so the caller can
// emit one deterministic trace event per leak-proofed hold. Active
// checks already treat a past-TTL hold as dead; this sweep only makes
// the transition observable.
func (bk *Book) ExpireDue(now float64) []Booking {
	var due []Booking
	for i := range bk.list {
		b := &bk.list[i]
		if b.State == Held && now >= b.ExpiresAt {
			b.State = Expired
			due = append(due, *b)
		}
	}
	// IDs are unique, so (expiry, ID) orders every pair.
	slices.SortFunc(due, func(x, y Booking) int {
		if c := cmp.Compare(x.ExpiresAt, y.ExpiresAt); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return due
}

// Get returns a copy of the booking, if it exists.
func (bk *Book) Get(id uint64) (Booking, bool) {
	b := bk.booking(id)
	if b == nil {
		return Booking{}, false
	}
	return *b, true
}

// Active returns the number of bookings blocking windows at time now.
func (bk *Book) Active(now float64) int {
	n := 0
	for i := range bk.list {
		if bk.list[i].Active(now) {
			n++
		}
	}
	return n
}

// Windows returns, per node, the active booked windows that still end
// after now, sorted by start — the shape schedule.Resource.Booked
// wants. It returns nil when nothing is booked, so downstream planning
// stays on its reservation-free path (and byte-identical to a build
// without this package).
func (bk *Book) Windows(now float64) [][]schedule.Window {
	var out [][]schedule.Window
	for i := range bk.list {
		b := &bk.list[i]
		if !b.Active(now) || b.End <= now {
			continue
		}
		if out == nil {
			out = make([][]schedule.Window, bk.numNodes)
		}
		w := schedule.Window{Start: b.Start, End: b.End}
		for m := b.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			out[i] = append(out[i], w)
		}
	}
	for _, ws := range out {
		if len(ws) > 1 {
			sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		}
	}
	return out
}

// Horizon returns the latest end among active bookings still ending
// after now, or now if there are none — the booked part of the
// resource's advertised freetime.
func (bk *Book) Horizon(now float64) float64 {
	h := now
	for i := range bk.list {
		if b := &bk.list[i]; b.Active(now) && b.End > h {
			h = b.End
		}
	}
	return h
}

// FindWindow quotes the earliest start ≥ earliest at which k nodes are
// simultaneously free for dur seconds: free of active bookings and past
// their committed-work floor (avail[i], absolute virtual time; pass
// +Inf for nodes that are down). It returns the chosen node mask and
// start, or ok=false if fewer than k nodes have a finite floor. The
// search is deterministic: among eligible nodes at the minimal feasible
// start, the k lowest-indexed win.
func (bk *Book) FindWindow(k int, earliest, dur float64, avail []float64, now float64) (mask uint64, start float64, ok bool) {
	if k < 1 || k > bk.numNodes || len(avail) != bk.numNodes {
		return 0, 0, false
	}
	// Candidate starts: the request's own earliest, each node's floor,
	// and each active window's end. The minimal feasible start for any
	// node set is one of these (between candidates the eligible-node set
	// only shrinks going backwards in time).
	cands := append(bk.cands[:0], earliest)
	for _, a := range avail {
		if a > earliest && !math.IsInf(a, 1) {
			cands = append(cands, a)
		}
	}
	for i := range bk.list {
		if b := &bk.list[i]; b.Active(now) && b.End > earliest {
			cands = append(cands, b.End)
		}
	}
	slices.Sort(cands)
	bk.cands = cands
	for _, t := range cands {
		blocked := bk.blockedNodes(t, t+dur, now)
		var m uint64
		n := 0
		for i := 0; i < bk.numNodes && n < k; i++ {
			bit := uint64(1) << uint(i)
			if avail[i] > t || blocked&bit != 0 {
				continue
			}
			m |= bit
			n++
		}
		if n == k {
			return m, t, true
		}
	}
	return 0, 0, false
}

// blockedNodes returns the nodes on which an active booking overlaps
// [start, end).
func (bk *Book) blockedNodes(start, end, now float64) uint64 {
	var blocked uint64
	for i := range bk.list {
		b := &bk.list[i]
		if b.Mask&^blocked == 0 || !b.Active(now) {
			continue
		}
		if (schedule.Window{Start: b.Start, End: b.End}).Overlaps(start, end) {
			blocked |= b.Mask
		}
	}
	return blocked
}
