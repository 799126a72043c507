package scheduler

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// freetimeByScan is Freetime as it was before busyMax: it scans every
// node's committed busy horizon on each call.
func freetimeByScan(l *Local) float64 {
	ft := l.now
	if l.clock != nil {
		ft = max(ft, l.clock())
	}
	if l.book != nil {
		ft = max(ft, l.book.Horizon(ft))
	}
	for _, b := range l.nodeBusy {
		ft = max(ft, b)
	}
	if len(l.plan.Items) > 0 {
		ft = max(ft, l.plan.Makespan)
	}
	return ft
}

// TestFreetimeMatchesBusyScan holds Freetime, Drain and busyMax to a scan
// of nodeBusy while tasks launch late under a degradation slowdown and
// confirmed reservations start in their windows, and Records to the
// reflect-swapper stable sort it replaced.
func TestFreetimeMatchesBusyScan(t *testing.T) {
	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			l := newTestLocal(t, "S1", pc.make(), 8)
			l.SetSlowdown(func(start float64) float64 {
				if start >= 40 && start < 160 {
					return 3
				}
				return 1
			})
			check := func(when string) {
				t.Helper()
				if got, want := l.Freetime(), freetimeByScan(l); got != want {
					t.Fatalf("%s: Freetime %v, the scan %v", when, got, want)
				}
				if got, want := l.busyMax, slices.Max(l.nodeBusy); got != want {
					t.Fatalf("%s: busyMax %v, max of nodeBusy %v", when, got, want)
				}
			}
			rng := sim.NewRNG(9)
			apps := []string{"fft", "sweep3d", "improc", "memsort"}
			var id uint64
			now := 0.0
			for i := 0; i < 60; i++ {
				now += rng.ExpFloat64() * 4
				if i%7 == 3 {
					id++
					q, err := l.QuoteReservation(1+rng.Intn(3), now+rng.UniformIn(0, 30), rng.UniformIn(5, 40), now)
					if err != nil {
						t.Fatal(err)
					}
					if err := l.HoldReservation(id, "tester", q.Mask, q.Start, q.End, now, 1e6); err != nil {
						t.Fatal(err)
					}
					check("after a hold")
					if _, err := l.ConfirmReservation(id, id, appOf(t, "fft"), now); err != nil {
						t.Fatal(err)
					}
					check("after a confirm")
					continue
				}
				if _, err := l.Submit(appOf(t, apps[rng.Intn(len(apps))]), now+200, now); err != nil {
					t.Fatal(err)
				}
				check("after a submit")
			}
			for _, at := range []float64{now + 50, now + 500} {
				l.AdvanceTo(at)
				check("after an advance")
			}
			if got, want := l.Drain(), max(l.now, slices.Max(l.nodeBusy)); got != want {
				t.Fatalf("Drain %v, the scan %v", got, want)
			}
			check("after the drain")
			if len(l.committed) == 0 || l.book == nil {
				t.Fatal("nothing was committed or booked")
			}

			ref := slices.Clone(l.committed)
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Start < ref[j].Start })
			if got := l.Records(); !slices.Equal(got, ref) {
				t.Fatal("Records differs from the stable sort of the committed tasks")
			}
		})
	}
}
