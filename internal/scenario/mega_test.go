package scenario

import (
	"reflect"
	"testing"
)

// megaShapeSpec is a CI-sized shrink of examples/scenarios/mega.json:
// the same shape — generated tree, mixed per-resource node counts,
// relaxed deadlines, Poisson arrivals — with two orders of magnitude
// fewer agents and requests so it runs in a test-suite budget, and the
// GA policy in place of fifo-fast: the GA's evaluation pool is the only
// thing a worker width varies.
func megaShapeSpec() Spec {
	return Spec{
		Name: "mega-ci",
		Seed: 2003,
		Topology: TopologySpec{
			Agents:    48,
			Branching: 3,
			NodeMix:   []int{16, 8, 8, 4},
		},
		Arrivals:      ArrivalSpec{Process: "poisson", Count: 600, Rate: 20},
		Policy:        "ga",
		GA:            &GASpec{PopulationSize: 20, MaxGenerations: 10, ConvergenceWindow: 4},
		DeadlineScale: 4,
	}
}

// TestMegaShapeWorkerWidthStability pins determinism on the mega-grid
// shape: the due-heap advance and batched exchanges must produce
// identical results — including the executed-event count — at every GA
// worker width, and the streaming audit must come back clean.
func TestMegaShapeWorkerWidthStability(t *testing.T) {
	base, err := Run(megaShapeSpec(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.AuditOK {
		t.Fatalf("audit failed at width 1:\n%s", base.AuditSummary)
	}
	if base.Completed == 0 || base.SimEvents == 0 {
		t.Fatalf("degenerate run: completed %d, sim events %d", base.Completed, base.SimEvents)
	}
	for _, w := range []int{2, 4} {
		got, err := Run(megaShapeSpec(), RunOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		// SimEvents is deliberately part of the comparison: a worker
		// width that schedules extra (or fewer) simulator events is a
		// determinism bug even if the aggregate metrics agree.
		if !reflect.DeepEqual(stripHost(base), stripHost(got)) {
			t.Fatalf("mega-shape results differ between widths 1 and %d:\n1: %+v\n%d: %+v",
				w, stripHost(base), w, stripHost(got))
		}
	}
}
