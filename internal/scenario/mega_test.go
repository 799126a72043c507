package scenario

import "testing"

// megaShapeSpec is a CI-sized shrink of examples/scenarios/mega.json:
// the same shape — generated tree, mixed per-resource node counts,
// relaxed deadlines, Poisson arrivals — with two orders of magnitude
// fewer agents and requests so it runs in a test-suite budget, and the
// GA policy in place of fifo-fast.
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
// identical results — including the executed-event count — on a repeated
// run, and the streaming audit must come back clean.
func TestMegaShapeWorkerWidthStability(t *testing.T) {
	base := runTwice(t, megaShapeSpec())
	if !base.AuditOK {
		t.Fatalf("audit failed:\n%s", base.AuditSummary)
	}
	if base.Completed == 0 || base.SimEvents == 0 {
		t.Fatalf("degenerate run: completed %d, sim events %d", base.Completed, base.SimEvents)
	}
}
