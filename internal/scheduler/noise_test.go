package scheduler

import (
	"testing"

	"repro/internal/pace"
)

// newNoisyLocal builds a scheduler whose actual execution times are
// scaled by a fixed factor relative to predictions.
func newNoisyLocal(t *testing.T, factor float64) *Local {
	t.Helper()
	l, err := NewLocal(Config{
		Name: "S", HW: pace.SGIOrigin2000, NumNodes: 4,
		Policy: NewFIFOPolicy(), Engine: pace.NewEngine(),
		ActualDuration: func(_ *pace.AppModel, _ int, predicted float64, _ int) float64 {
			return predicted * factor
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestActualDurationStretchesRecords(t *testing.T) {
	l := newNoisyLocal(t, 2) // everything takes twice as long as predicted
	if _, err := l.Submit(appOf(t, "closure"), 1e9, 0); err != nil {
		t.Fatal(err)
	}
	l.Drain()
	rec := l.Records()[0]
	// closure on 4 nodes predicts 8s; reality takes 16s.
	if rec.End-rec.Start != 16 {
		t.Fatalf("actual duration %v, want 16", rec.End-rec.Start)
	}
}

func TestActualDurationNoNodeOverlap(t *testing.T) {
	// Optimistic predictions (reality 3x slower) must not double-book
	// nodes: later tasks start late rather than overlapping.
	l := newNoisyLocal(t, 3)
	for i := 0; i < 10; i++ {
		if _, err := l.Submit(appOf(t, "memsort"), 1e9, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Drain()
	recs := l.Records()
	if len(recs) != 10 {
		t.Fatalf("%d records", len(recs))
	}
	for node := 0; node < 4; node++ {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, r := range recs {
			if r.Mask&(1<<uint(node)) != 0 {
				ivs = append(ivs, iv{r.Start, r.End})
			}
		}
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.a < b.b-1e-9 && b.a < a.b-1e-9 {
					t.Fatalf("node %d double-booked under noise: %+v and %+v", node, a, b)
				}
			}
		}
	}
}

func TestActualDurationFastRealityFreesNodesEarly(t *testing.T) {
	// Pessimistic predictions (reality 2x faster): all work completes
	// earlier than the predicted horizon.
	l := newNoisyLocal(t, 0.5)
	for i := 0; i < 4; i++ {
		if _, err := l.Submit(appOf(t, "fft"), 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Drain()
	exact := newTestLocal(t, "X", NewFIFOPolicy(), 4)
	for i := 0; i < 4; i++ {
		if _, err := exact.Submit(appOf(t, "fft"), 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	exactEnd := exact.Drain()
	if end >= exactEnd {
		t.Fatalf("fast reality finished at %v, exact mode at %v", end, exactEnd)
	}
}

func TestFreetimeCoversCommittedHorizonUnderNoise(t *testing.T) {
	// The residual plan keeps its predicted timing after a promotion
	// (replanning happens on Submit/Delete, not on clock advances), so
	// when reality runs 3x slower than prediction the committed busy
	// horizon overtakes the plan makespan. Freetime must advertise the
	// later of the two — the plan alone would promise an optimistic
	// freetime to the discovery layer. A single node serialises the
	// queue, keeping a third task planned while the second overshoots.
	l, err := NewLocal(Config{
		Name: "S", HW: pace.SGIOrigin2000, NumNodes: 1,
		Policy: NewFIFOPolicy(), Engine: pace.NewEngine(),
		ActualDuration: func(_ *pace.AppModel, _ int, predicted float64, _ int) float64 {
			return predicted * 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Submit(appOf(t, "closure"), 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The first task promoted during the second Submit and its actual
	// duration is 3x the predicted one, so the second task's planned
	// start is the first's actual end. Walk the clock just past it: the
	// second promotes (and overshoots), the third stays planned.
	if len(l.Records()) != 1 {
		t.Fatalf("%d records after submits, want 1", len(l.Records()))
	}
	l.AdvanceTo(l.Records()[0].End + 1)

	var horizon float64
	for _, r := range l.Records() {
		if r.End > horizon {
			horizon = r.End
		}
	}
	if len(l.Records()) != 2 {
		t.Fatalf("%d records, want 2 promoted", len(l.Records()))
	}
	if len(l.plan.Items) == 0 {
		t.Fatal("expected a residual planned task")
	}
	if l.plan.Makespan >= horizon {
		t.Fatalf("scenario did not go stale: makespan %v, committed horizon %v", l.plan.Makespan, horizon)
	}
	if ft := l.Freetime(); ft != horizon {
		t.Fatalf("Freetime() = %v, want the committed busy horizon %v (stale plan makespan is %v)",
			ft, horizon, l.plan.Makespan)
	}
}

func TestActualDurationNegativeClamped(t *testing.T) {
	l, err := NewLocal(Config{
		Name: "S", HW: pace.SGIOrigin2000, NumNodes: 2,
		Policy: NewFIFOPolicy(), Engine: pace.NewEngine(),
		ActualDuration: func(_ *pace.AppModel, _ int, _ float64, _ int) float64 {
			return -5 // hostile model: must clamp to zero, not corrupt time
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Submit(appOf(t, "fft"), 1e9, 0); err != nil {
		t.Fatal(err)
	}
	l.Drain()
	rec := l.Records()[0]
	if rec.End != rec.Start {
		t.Fatalf("negative duration not clamped: %+v", rec)
	}
}
