package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestRegressScenarios runs every spec in examples/scenarios/regress —
// feature combinations that once broke the grid — audited, and checks
// independently of the audit that no placement lands on an agent
// between its peerdown and peerup.
func TestRegressScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/regress/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no regression scenarios found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			spec, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(8*spec.Arrivals.Count + 64)
			res, err := Run(spec, RunOptions{Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AuditOK {
				t.Fatalf("audit failed: %s", res.AuditSummary)
			}
			down := map[string]bool{}
			for _, ev := range rec.Events() {
				switch ev.Kind {
				case trace.KindPeerDown:
					down[ev.Agent] = true
				case trace.KindPeerUp:
					delete(down, ev.Agent)
				case trace.KindDispatch, trace.KindRedispatch, trace.KindMigrateRedispatch, trace.KindReserveConfirm:
					if down[ev.Resource] {
						t.Errorf("req %d: %s on crashed %s at t=%g", ev.ReqID, ev.Kind, ev.Resource, ev.Time)
					}
				}
			}
		})
	}
}
