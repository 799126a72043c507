package experiment

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestReservationStudy(t *testing.T) {
	p := QuickParams()
	p.Requests = 100
	pts := runStudy(t, p.ReservationRuns([]float64{0, 0.2}), scenario.RunOptions{})
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	base, mixed := pts[0], pts[1]
	if base.ResvRequested != 0 {
		t.Fatalf("share-0 point reserved %d requests", base.ResvRequested)
	}
	if mixed.ResvRequested == 0 {
		t.Fatal("share-0.2 point reserved nothing")
	}
	if mixed.ResvConfirmed+mixed.ResvRejected != mixed.ResvRequested {
		t.Fatalf("admission accounting: %+v", mixed)
	}
	for _, pt := range pts {
		if !pt.AuditOK {
			t.Fatalf("%s audit failed:\n%s", pt.Label, pt.AuditSummary)
		}
	}
	out := FormatReservation(pts)
	for _, want := range []string{"Experiment 6", "guar-hit", "be-eps/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReservationStudyShareZeroMatchesExp3 anchors the study: its
// share-0 point is the untouched experiment-3 configuration, so its grid
// totals must match a plain case-study scenario run byte for byte.
func TestReservationStudyShareZeroMatchesExp3(t *testing.T) {
	p := QuickParams()
	p.Requests = 100
	runs := append(p.ReservationRuns([]float64{0}), p.CaseStudyRuns()[2])
	outs := runStudy(t, runs, scenario.RunOptions{})
	a, b := outs[0].Report.Total, outs[1].Report.Total
	if a.Epsilon != b.Epsilon || a.Upsilon != b.Upsilon || a.Beta != b.Beta {
		t.Fatalf("share-0 totals diverge from experiment 3:\nstudy: %+v\nexp3:  %+v", a, b)
	}
}
