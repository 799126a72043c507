package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestReservationRequiresAgents(t *testing.T) {
	g := smallGrid(t, Options{Seed: 1})
	err := g.SubmitReservationAt(0, "fast", "fft", 100, 50, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "UseAgents") {
		t.Fatalf("err = %v, want UseAgents requirement", err)
	}
}

func TestReservationValidation(t *testing.T) {
	g := smallGrid(t, Options{UseAgents: true, Seed: 1})
	for _, c := range []struct {
		app                string
		startRel, duration float64
		nodes              int
	}{
		{"nosuch", 100, 50, 2},
		{"fft", -1, 50, 2},
		{"fft", 100, 0, 2},
		{"fft", 100, 50, 0},
	} {
		if err := g.SubmitReservationAt(0, "fast", c.app, c.startRel, c.duration, c.nodes, 1); err == nil {
			t.Errorf("accepted bad reservation %+v", c)
		}
	}
	if err := g.SubmitReservationAt(0, "ghost", "fft", 100, 50, 2, 1); err == nil {
		t.Error("accepted reservation at unknown agent")
	}
}

// reservedGrid mixes best-effort traffic with reservations on the
// three-resource grid, under trace + telemetry, and returns both.
func reservedGrid(t testing.TB) (*Grid, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(4096)
	g := smallGrid(t, Options{
		UseAgents: true,
		Seed:      907,
		Trace:     rec,
		Telemetry: telemetry.NewRegistry(),
	})
	for i := 0; i < 12; i++ {
		if err := g.SubmitAt(float64(i)*15, "fast", "fft", 4000); err != nil {
			t.Fatal(err)
		}
	}
	return g, rec
}

// TestReservationGuaranteedStart is the tentpole end-to-end check: a
// confirmed reservation's task starts exactly at its booked window start
// no matter what best-effort traffic surrounds it, and the whole run
// passes the audit including the reservation invariants.
func TestReservationGuaranteedStart(t *testing.T) {
	g, rec := reservedGrid(t)
	if err := g.SubmitReservationAt(10, "fast", "fft", 400, 120, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.ReservationStats()
	if st.Requested != 1 || st.Confirmed != 1 || st.Rejected != 0 || st.Parts != 1 {
		t.Fatalf("stats: %+v", st)
	}
	reserved := g.ReservedRequests()
	if len(reserved) != 1 {
		t.Fatalf("reserved reqIDs: %v", reserved)
	}
	var rrec *scheduler.Record
	for _, r := range g.Records() {
		if reserved[r.ReqID] {
			rr := r
			rrec = &rr
		}
	}
	if rrec == nil {
		t.Fatal("no execution record for the reserved request")
	}
	// Requested earliest was t=10+400=410 on an idle-enough grid: the
	// booked window starts at the quote, and the task runs exactly it.
	if rrec.Start < 410 {
		t.Fatalf("reserved task started at %g, before the requested earliest 410", rrec.Start)
	}
	if rrec.End != rrec.Start+120 {
		t.Fatalf("reserved task ran [%g,%g), want the booked 120 s", rrec.Start, rrec.End)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindReserveHold] != 1 || byKind[trace.KindReserveConfirm] != 1 {
		t.Fatalf("reservation events: %v", byKind)
	}
	reg := g.opts.Telemetry
	if v := reg.Counter("reservations_confirmed_total").Value(); v != 1 {
		t.Fatalf("reservations_confirmed_total = %d", v)
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestCoAllocationSharedWindow reserves nodes on every resource of the
// grid for one common window: all parts must execute the same [start,
// end) on three distinct resources.
func TestCoAllocationSharedWindow(t *testing.T) {
	g, rec := reservedGrid(t)
	if err := g.SubmitReservationAt(20, "fast", "fft", 300, 90, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.ReservationStats()
	if st.Confirmed != 1 || st.Parts != 3 {
		t.Fatalf("stats: %+v", st)
	}
	reserved := g.ReservedRequests()
	var parts []scheduler.Record
	for _, r := range g.Records() {
		if reserved[r.ReqID] {
			parts = append(parts, r)
		}
	}
	if len(parts) != 3 {
		t.Fatalf("%d reserved records, want 3 parts", len(parts))
	}
	resources := map[string]bool{}
	for _, p := range parts {
		resources[p.Resource] = true
		if p.Start != parts[0].Start || p.End != parts[0].End {
			t.Fatalf("part windows diverge: %+v", parts)
		}
	}
	if len(resources) != 3 {
		t.Fatalf("parts landed on %d distinct resources, want 3", len(resources))
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestReservationRejectedBeyondMaxSlip books the whole grid solid, then
// asks for a window inside the blockade with a tight slip bound: the
// admission must be refused with nothing held, and the rejected request
// must still satisfy lifecycle conservation (arrive → fail).
func TestReservationRejectedBeyondMaxSlip(t *testing.T) {
	rec := trace.NewRecorder(4096)
	g := smallGrid(t, Options{
		UseAgents:   true,
		Seed:        31,
		Trace:       rec,
		Reservation: ReservationPolicy{MaxSlip: 10},
	})
	// Blockade: all 8 nodes of every resource for [100, 5000).
	if err := g.SubmitReservationAt(0, "fast", "fft", 100, 4900, 8, 3); err != nil {
		t.Fatal(err)
	}
	// The victim wants 2 nodes at t=200±10 — inside the blockade on every
	// resource, so the earliest feasible start slips to 5000.
	if err := g.SubmitReservationAt(50, "fast", "fft", 150, 60, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.ReservationStats()
	if st.Confirmed != 1 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindFail] != 1 {
		t.Fatalf("fail events: %v", byKind)
	}
	// Nothing may be left held anywhere after the rejection: the victim's
	// reservation ID (its first minted reqID, 4, after the blockade's
	// three parts) must not appear in any book.
	for _, name := range g.Hierarchy().Names() {
		l := g.locals[name]
		if b := l.Book(); b != nil {
			if bk, ok := b.Get(4); ok {
				t.Fatalf("rejected reservation left booking %+v on %s", bk, name)
			}
		}
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestReservationExpirySweep plants a hold directly on a local book —
// the abandoned-client case the TTL exists for — and checks the sweep
// retires it, frees the window, and emits the reserve-expire event the
// audit needs to close the booking's lifecycle.
func TestReservationExpirySweep(t *testing.T) {
	g, rec := reservedGrid(t)
	// A real reservation brings the reservist (and its sweep) to life.
	if err := g.SubmitReservationAt(10, "fast", "fft", 400, 60, 2, 1); err != nil {
		t.Fatal(err)
	}
	// The abandoned hold: placed before the run on mid's book with a 25 s
	// TTL, never confirmed. The matching hold event keeps the audit's
	// booking lifecycle consistent.
	l := g.locals["mid"]
	if err := l.HoldReservation(999, "client", 0b11, 1000, 1100, 0, 25); err != nil {
		t.Fatal(err)
	}
	rec.Record(trace.Event{Time: 0, Kind: trace.KindReserveHold, Resource: "mid",
		Detail: fmt.Sprintf("resv=%d mask=%x win=[%g,%g) exp=%g", 999, 0b11, 1000.0, 1100.0, 25.0)})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.ReservationStats()
	if st.Expired != 1 {
		t.Fatalf("stats: %+v, want 1 expiry", st)
	}
	if byKind := countKinds(rec); byKind[trace.KindReserveExpire] != 1 {
		t.Fatalf("reserve-expire events: %v", byKind)
	}
	// The hold is terminally expired, so its window no longer blocks.
	if bk, ok := l.Book().Get(999); !ok || bk.State.String() != "expired" {
		t.Fatalf("abandoned hold = %+v, want expired", bk)
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestReservationPathInertWhenUnused pins the byte-identity contract:
// building the grid with a non-zero reservation policy but never
// submitting a reservation yields exactly the records of a grid that
// knows nothing of reservations.
func TestReservationPathInertWhenUnused(t *testing.T) {
	run := func(opts Options) []scheduler.Record {
		g := smallGrid(t, opts)
		for i := 0; i < 12; i++ {
			if err := g.SubmitAt(float64(i)*15, "fast", "fft", 4000); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Records()
	}
	plain := run(Options{UseAgents: true, Seed: 907})
	armed := run(Options{UseAgents: true, Seed: 907,
		Reservation: ReservationPolicy{HoldTTL: 5, MaxSlip: 1, SweepPeriod: 1}})
	if !reflect.DeepEqual(plain, armed) {
		t.Fatal("an unused reservation policy changed the run")
	}
}

// TestReservationDeterministic runs the mixed workload twice and demands
// identical records and stats.
func TestReservationDeterministic(t *testing.T) {
	run := func() ([]scheduler.Record, ReservationStats) {
		g, _ := reservedGrid(t)
		if err := g.SubmitReservationAt(10, "fast", "fft", 400, 120, 3, 2); err != nil {
			t.Fatal(err)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Records(), g.ReservationStats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) || s1 != s2 {
		t.Fatalf("two identical reservation runs diverged: %+v vs %+v", s1, s2)
	}
}
