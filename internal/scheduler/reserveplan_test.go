package scheduler

import (
	"reflect"
	"testing"
)

// policyCases enumerates every planning policy; blocked-window behaviour
// is a Policy-interface contract, not a GA feature.
func policyCases() []struct {
	name string
	make func() Policy
} {
	return []struct {
		name string
		make func() Policy
	}{
		{"fifo", func() Policy { return NewFIFOPolicy() }},
		{"fast-fifo", func() Policy { return NewFastFIFOPolicy() }},
		{"ga", func() Policy { return newGAForTest(1) }},
	}
}

// placements returns every placement the scheduler holds — planned and
// already-promoted alike (a replan at t=0 can promote a task starting at
// 0 on the very next clock advance).
func placements(l *Local) []Record {
	return append(l.Records(), l.Planned()...)
}

// assertNoOverlap fails if any placement intersects the booked window
// [wStart, wEnd) on a node of wMask.
func assertNoOverlap(t *testing.T, l *Local, wMask uint64, wStart, wEnd float64) {
	t.Helper()
	for _, r := range placements(l) {
		if r.Mask&wMask != 0 && r.Start < wEnd && r.End > wStart {
			t.Fatalf("task %d [%g,%g) mask %b overlaps booked [%g,%g) mask %b",
				r.TaskID, r.Start, r.End, r.Mask, wStart, wEnd, wMask)
		}
	}
}

// TestPoliciesPlanAroundHeldWindow holds a mid-horizon window on two of
// four nodes and checks every policy plans the queue around it.
func TestPoliciesPlanAroundHeldWindow(t *testing.T) {
	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			l := newTestLocal(t, "S1", pc.make(), 4)
			app := appOf(t, "fft")
			if err := l.HoldReservation(7, "tester", 0b0011, 20, 80, 0, 1e6); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := l.Submit(app, 1e6, 0); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(placements(l)); got != 4 {
				t.Fatalf("%d placements, want 4", got)
			}
			assertNoOverlap(t, l, 0b0011, 20, 80)
		})
	}
}

// TestPoliciesWindowStartingAtNow books all nodes starting exactly at the
// scheduling instant: nothing may start before the window clears.
func TestPoliciesWindowStartingAtNow(t *testing.T) {
	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			l := newTestLocal(t, "S1", pc.make(), 4)
			app := appOf(t, "fft")
			if err := l.HoldReservation(7, "tester", 0b1111, 0, 30, 0, 1e6); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := l.Submit(app, 1e6, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range l.Planned() {
				if r.Start < 30 {
					t.Fatalf("task %d planned at %g inside the [0,30) booking", r.TaskID, r.Start)
				}
			}
			assertNoOverlap(t, l, 0b1111, 0, 30)
		})
	}
}

// TestPoliciesFullyBookedResource books every node for a long horizon:
// the policies must still return a valid schedule, with all work pushed
// past the blockade — never inside it.
func TestPoliciesFullyBookedResource(t *testing.T) {
	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			l := newTestLocal(t, "S1", pc.make(), 4)
			app := appOf(t, "fft")
			if err := l.HoldReservation(7, "tester", 0b1111, 0, 500, 0, 1e6); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := l.Submit(app, 1e6, 0); err != nil {
					t.Fatal(err)
				}
			}
			planned := l.Planned()
			if len(planned) != 3 {
				t.Fatalf("%d planned tasks, want 3", len(planned))
			}
			for _, r := range planned {
				if r.Start < 500 {
					t.Fatalf("task %d planned at %g inside the full [0,500) booking", r.TaskID, r.Start)
				}
			}
			// The advertisement must cover the blockade.
			if ft := l.Freetime(); ft < 500 {
				t.Fatalf("freetime %g does not cover the booked horizon 500", ft)
			}
		})
	}
}

// TestPoliciesZeroWidthHoldChangesNothing books a zero-width window and
// demands the plan of an identical unbooked scheduler, record for record.
func TestPoliciesZeroWidthHoldChangesNothing(t *testing.T) {
	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			plain := newTestLocal(t, "S1", pc.make(), 4)
			booked := newTestLocal(t, "S1", pc.make(), 4)
			app := appOf(t, "fft")
			if err := booked.HoldReservation(7, "tester", 0b1111, 40, 40, 0, 1e6); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := plain.Submit(app, 1e6, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := booked.Submit(app, 1e6, 0); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(plain.Planned(), booked.Planned()) {
				t.Fatalf("a zero-width hold changed the plan:\n%+v\n%+v", plain.Planned(), booked.Planned())
			}
			plain.Drain()
			booked.Drain()
			if !reflect.DeepEqual(plain.Records(), booked.Records()) {
				t.Fatal("a zero-width hold changed the executed records")
			}
		})
	}
}

// TestFreetimeRestoredAfterRelease is the satellite regression: a
// released hold must restore Freetime exactly, and a subsequent identical
// workload must execute byte-identically to a never-booked scheduler.
func TestFreetimeRestoredAfterRelease(t *testing.T) {
	plain := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	booked := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	app := appOf(t, "fft")
	base := plain.Freetime()

	q, err := booked.QuoteReservation(2, 100, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Start != 100 || q.End != 400 {
		t.Fatalf("quote on an idle resource = %+v, want [100,400)", q)
	}
	if err := booked.HoldReservation(1, "tester", q.Mask, q.Start, q.End, 0, 50); err != nil {
		t.Fatal(err)
	}
	if ft := booked.Freetime(); ft != 400 {
		t.Fatalf("held freetime %g, want the booked horizon 400", ft)
	}
	if err := booked.ReleaseReservation(1, 0); err != nil {
		t.Fatal(err)
	}
	if ft := booked.Freetime(); ft != base {
		t.Fatalf("freetime %g after release, want %g restored exactly", ft, base)
	}

	for i := 0; i < 5; i++ {
		at := float64(i) * 3
		if _, err := plain.Submit(app, 1e6, at); err != nil {
			t.Fatal(err)
		}
		if _, err := booked.Submit(app, 1e6, at); err != nil {
			t.Fatal(err)
		}
	}
	plain.Drain()
	booked.Drain()
	if !reflect.DeepEqual(plain.Records(), booked.Records()) {
		t.Fatalf("records diverge after a released hold:\n%+v\n%+v", plain.Records(), booked.Records())
	}
}

// TestFreetimeSnapsBackAfterExpiry covers the TTL path: once the clock
// passes a hold's expiry the advertised freetime snaps back even before
// the sweep makes the expiry observable, and the swept scheduler runs a
// workload byte-identically to a never-booked one.
func TestFreetimeSnapsBackAfterExpiry(t *testing.T) {
	plain := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	booked := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	app := appOf(t, "fft")

	if err := booked.HoldReservation(1, "tester", 0b0110, 100, 400, 0, 50); err != nil {
		t.Fatal(err)
	}
	if ft := booked.Freetime(); ft != 400 {
		t.Fatalf("held freetime %g, want 400", ft)
	}
	booked.AdvanceTo(60) // past the TTL: the hold is dead before any sweep
	plain.AdvanceTo(60)
	if ft := booked.Freetime(); ft != plain.Freetime() {
		t.Fatalf("freetime %g past the TTL, want %g (snapped back without a sweep)", ft, plain.Freetime())
	}
	due := booked.ExpireReservations(60)
	if len(due) != 1 || due[0].ID != 1 {
		t.Fatalf("expiry sweep returned %+v, want booking 1", due)
	}
	if b, ok := booked.Book().Get(1); !ok || b.State.String() != "expired" {
		t.Fatalf("booking after sweep = %+v, want expired", b)
	}
	if ft := booked.Freetime(); ft != plain.Freetime() {
		t.Fatalf("freetime %g after the sweep, want %g", ft, plain.Freetime())
	}

	for i := 0; i < 5; i++ {
		at := 60 + float64(i)*3
		if _, err := plain.Submit(app, 1e6, at); err != nil {
			t.Fatal(err)
		}
		if _, err := booked.Submit(app, 1e6, at); err != nil {
			t.Fatal(err)
		}
	}
	plain.Drain()
	booked.Drain()
	if !reflect.DeepEqual(plain.Records(), booked.Records()) {
		t.Fatalf("records diverge after an expired hold:\n%+v\n%+v", plain.Records(), booked.Records())
	}
}

// TestConfirmedReleaseLeavesNoPhantomTask releases a confirmed
// reservation before its window: the reserved task must vanish with the
// booking — no record, no busy time, freetime restored.
func TestConfirmedReleaseLeavesNoPhantomTask(t *testing.T) {
	plain := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	booked := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	app := appOf(t, "fft")

	if err := booked.HoldReservation(1, "tester", 0b0011, 100, 400, 0, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := booked.ConfirmReservation(1, 99, app, 0); err != nil {
		t.Fatal(err)
	}
	if ft := booked.Freetime(); ft != 400 {
		t.Fatalf("confirmed freetime %g, want 400", ft)
	}
	if err := booked.ReleaseReservation(1, 5); err != nil {
		t.Fatal(err)
	}
	plain.AdvanceTo(5)
	if ft := booked.Freetime(); ft != plain.Freetime() {
		t.Fatalf("freetime %g after releasing a confirmed booking, want %g", ft, plain.Freetime())
	}
	booked.Drain()
	if recs := booked.Records(); len(recs) != 0 {
		t.Fatalf("released reservation still executed: %+v", recs)
	}
}
