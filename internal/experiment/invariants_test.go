package experiment

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/scheduler"
)

// TestCaseStudyInvariants runs each Table 2 configuration at reduced scale
// and asserts the system-wide invariants that hold no matter which
// scheduler or discovery mechanism is active: every request executes
// exactly once, no node is double-booked, tasks never start before
// arrival or use nodes outside their resource, and the dispatch log
// matches the execution records.
func TestCaseStudyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep in short mode")
	}
	p := QuickParams()
	p.Requests = 150
	nodes := core.NodeCounts(scenario.Fig7Resources(), nil)
	for _, run := range p.CaseStudyRuns() {
		t.Run(run.Setup.Label, func(t *testing.T) {
			out := runStudy(t, []Run{run}, scenario.RunOptions{})[0]
			recs := out.Records
			if len(recs) != p.Requests {
				t.Fatalf("%d records for %d requests", len(recs), p.Requests)
			}
			checkNoDoubleBooking(t, recs, nodes)

			// Dispatch log and records agree resource by resource.
			dispatched := map[string]int{}
			for _, d := range out.Dispatches {
				dispatched[d.Resource]++
			}
			executed := map[string]int{}
			for _, r := range recs {
				executed[r.Resource]++
			}
			for res, n := range dispatched {
				if executed[res] != n {
					t.Fatalf("%s: %d dispatched but %d executed", res, n, executed[res])
				}
			}
		})
	}
}

func checkNoDoubleBooking(t *testing.T, recs []scheduler.Record, nodes map[string]int) {
	t.Helper()
	type iv struct{ a, b float64 }
	byNode := map[string]map[int][]iv{}
	for _, r := range recs {
		if r.Start < r.Arrival-1e-9 {
			t.Fatalf("task %d on %s started %v before arrival %v", r.TaskID, r.Resource, r.Start, r.Arrival)
		}
		if r.End < r.Start {
			t.Fatalf("task %d on %s ends before it starts: %+v", r.TaskID, r.Resource, r)
		}
		n := nodes[r.Resource]
		if r.Mask == 0 || r.Mask&^(uint64(1)<<uint(n)-1) != 0 {
			t.Fatalf("task %d mask %b outside %s's %d nodes", r.TaskID, r.Mask, r.Resource, n)
		}
		if byNode[r.Resource] == nil {
			byNode[r.Resource] = map[int][]iv{}
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			node := bits.TrailingZeros64(m)
			byNode[r.Resource][node] = append(byNode[r.Resource][node], iv{r.Start, r.End})
		}
	}
	for res, perNode := range byNode {
		for node, ivs := range perNode {
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.a < b.b-1e-9 && b.a < a.b-1e-9 {
						t.Fatalf("%s node %d double-booked: [%v,%v] and [%v,%v]", res, node, a.a, a.b, b.a, b.b)
					}
				}
			}
		}
	}
}

// TestCaseStudyInvariantsUnderNoise repeats the invariant sweep with
// noisy execution times, where the clamping logic in promotion is what
// keeps nodes single-booked.
func TestCaseStudyInvariantsUnderNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy invariant sweep in short mode")
	}
	p := QuickParams()
	p.Requests = 120
	recs := runStudy(t, p.AccuracyRuns([]NoiseCase{{Rel: 0.4, Bias: 0.3}}), scenario.RunOptions{})[0].Records
	if len(recs) != p.Requests {
		t.Fatalf("%d records for %d requests", len(recs), p.Requests)
	}
	checkNoDoubleBooking(t, recs, core.NodeCounts(scenario.Fig7Resources(), nil))
}
