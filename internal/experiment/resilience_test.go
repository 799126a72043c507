package experiment

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestResilienceZeroLostAndDeterministic runs Experiment 4 on the
// reduced workload: every accepted request must complete despite three
// crash windows and a partition, and two identical runs must produce an
// identical report.
func TestResilienceZeroLostAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience experiment is slow")
	}
	p := QuickParams()
	plan := ScaledFaultPlan(phase(p))

	run := func() (baseline, faulted Outcome, report string) {
		outs := runStudy(t, p.ResilienceRuns(plan), scenario.RunOptions{})
		return outs[0], outs[1], FormatResilience(outs, false)
	}
	baseline, faulted, report := run()
	st := faulted.Fault

	if st.Crashes != 3 || st.Recoveries != 3 {
		t.Fatalf("crashes/recoveries = %d/%d, want 3/3", st.Crashes, st.Recoveries)
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d tasks under the default crash schedule", st.Lost)
	}
	if got := len(faulted.Records); got != faulted.Requests {
		t.Fatalf("completed %d of %d requests", got, faulted.Requests)
	}
	if st.Redispatched == 0 {
		t.Fatal("crashing S2 mid-phase should strand queued tasks for re-dispatch")
	}
	if st.Rerouted == 0 {
		t.Fatal("no arrivals rerouted although crashed agents receive workload requests")
	}

	// Degradation is reported, not hidden: the faulted total utilisation
	// must stay within a sane envelope of the baseline (the crashed
	// capacity is idle while its agent is down, so some drop is real).
	base, flt := baseline.Report.Total, faulted.Report.Total
	if flt.Upsilon > base.Upsilon+10 {
		t.Fatalf("faulted upsilon %.1f implausibly above baseline %.1f", flt.Upsilon, base.Upsilon)
	}
	if flt.Upsilon < base.Upsilon-40 {
		t.Fatalf("faulted upsilon %.1f collapsed versus baseline %.1f", flt.Upsilon, base.Upsilon)
	}
	if flt.Beta <= 0 || flt.Beta > 100 {
		t.Fatalf("faulted beta %.1f outside (0, 100]", flt.Beta)
	}

	for _, want := range []string{"Experiment 4", "crash", "Tasks lost:            0"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}

	// Fixed seed, fixed plan: the whole report reproduces bit-for-bit.
	_, _, report2 := run()
	if report != report2 {
		t.Fatalf("two identical Experiment 4 runs diverged:\n--- first\n%s\n--- second\n%s", report, report2)
	}
}
