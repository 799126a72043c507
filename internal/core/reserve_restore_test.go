package core

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scheduler"
)

// TestRetiredHoldLeavesTable3Untouched is the release/expiry regression
// at grid level: a hold that is booked and then retired — released or
// TTL-expired — before traffic arrives must leave the whole run, records
// and Table 3 metrics alike, byte-identical to a grid that never booked.
func TestRetiredHoldLeavesTable3Untouched(t *testing.T) {
	run := func(prep func(l *scheduler.Local)) ([]scheduler.Record, metrics.GridReport) {
		g := smallGrid(t, Options{UseAgents: true, Seed: 907})
		if prep != nil {
			l, ok := g.locals["mid"]
			if !ok {
				t.Fatal("no local mid")
			}
			prep(l)
		}
		// Traffic starts at t=40, after the expiry variant's sweep time,
		// so both runs drive every scheduler over the same instants.
		for i := 0; i < 12; i++ {
			if err := g.SubmitAt(40+float64(i)*15, "fast", "fft", 4000); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		rep, err := g.Metrics(0)
		if err != nil {
			t.Fatal(err)
		}
		return g.Records(), rep
	}

	plainRecs, plainRep := run(nil)

	released := func(l *scheduler.Local) {
		if err := l.HoldReservation(77, "ghost", 0b1111, 50, 500, 0, 30); err != nil {
			t.Fatal(err)
		}
		if err := l.ReleaseReservation(77, 0); err != nil {
			t.Fatal(err)
		}
	}
	expired := func(l *scheduler.Local) {
		if err := l.HoldReservation(77, "ghost", 0b1111, 50, 500, 0, 30); err != nil {
			t.Fatal(err)
		}
		if due := l.ExpireReservations(40); len(due) != 1 {
			t.Fatalf("expiry sweep returned %d bookings, want 1", len(due))
		}
	}
	for _, c := range []struct {
		name string
		prep func(l *scheduler.Local)
	}{
		{"released", released},
		{"expired", expired},
	} {
		recs, rep := run(c.prep)
		if !reflect.DeepEqual(recs, plainRecs) {
			t.Fatalf("%s hold changed the execution records", c.name)
		}
		if !reflect.DeepEqual(rep, plainRep) {
			t.Fatalf("%s hold changed the Table 3 metrics:\n%+v\n%+v", c.name, rep, plainRep)
		}
	}
}
