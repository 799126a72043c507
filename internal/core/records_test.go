package core

import (
	"sort"
	"testing"

	"repro/internal/agent"
	"repro/internal/scheduler"
)

// recordsByConcat is Grid.Records as it was: every scheduler's own copy
// of its records, appended in the grid's natural name order (the
// hierarchy's names, or every local's under dynamic membership).
func recordsByConcat(g *Grid) []scheduler.Record {
	names := g.hier.Names()
	if g.members != nil {
		names = names[:0]
		for n := range g.locals {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return agent.LessAgentName(names[i], names[j]) })
	}
	var out []scheduler.Record
	for _, name := range names {
		out = append(out, g.locals[name].Records()...)
	}
	return out
}

// TestGridRecordsMatchesPerLocalConcat holds the sized, filled-in-place
// Grid.Records to the per-local concatenation, element by element, on a
// grid whose slow resource departs mid-run, one that takes reservations
// and one with a degraded resource.
func TestGridRecordsMatchesPerLocalConcat(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *Grid
	}{
		{"churn", func(t *testing.T) *Grid {
			g := smallGrid(t, churnOpts(7))
			submitMixed(t, g)
			return g
		}},
		{"reserved", func(t *testing.T) *Grid {
			g, _ := reservedGrid(t)
			for i, at := range []float64{10, 40, 90} {
				if err := g.SubmitReservationAt(at, "fast", "fft", 200, 120, 2+i, 1); err != nil {
					t.Fatal(err)
				}
			}
			return g
		}},
		{"degraded", func(t *testing.T) *Grid {
			g, _ := degradedGrid(t, testPolicy())
			return g
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.build(t)
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			got, want := g.Records(), recordsByConcat(g)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%d records, the concatenation has %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: %+v, the concatenation has %+v", i, got[i], want[i])
				}
			}
			if cap(got) != len(got) {
				t.Errorf("Records has capacity %d for %d records, want exactly its size", cap(got), len(got))
			}
			switch c.name {
			case "churn":
				if _, ok := g.hier.Lookup("slow"); ok || g.locals["slow"].NumRecords() == 0 {
					t.Fatal("the churn grid has no departed resource with records")
				}
			case "reserved":
				if n := g.ReservationStats().Confirmed; n == 0 {
					t.Fatal("the reserved grid confirmed no reservation")
				}
			}
		})
	}
}
