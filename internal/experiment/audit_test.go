package experiment

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestExperimentsPassAudit runs every Table 2 configuration at reduced
// scale with the lifecycle auditor attached and requires a spotless
// verdict: conservation, exclusivity, timing, placement and the §3.3
// metric recomputation all hold.
func TestExperimentsPassAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("audited sweep in short mode")
	}
	p := QuickParams()
	p.Requests = 120
	for _, o := range runStudy(t, p.CaseStudyRuns(), scenario.RunOptions{}) {
		if o.Audit == nil {
			t.Fatalf("experiment %d: auditor did not run", o.Setup.ID)
		}
		if !o.Audit.OK() {
			t.Fatalf("experiment %d: %v", o.Setup.ID, o.Audit.Violations)
		}
		c := o.Audit.Counts
		if c.Arrives != p.Requests || c.Completes+c.Fails != p.Requests {
			t.Fatalf("experiment %d not conserved: %+v", o.Setup.ID, c)
		}
	}
}

// TestResilienceRunPassesAudit is the seeded fault run that proves
// conservation end to end: agents crash mid-phase, pending tasks are
// re-dispatched (or lost as explicit fails), and every arrival must
// still net out to exactly one terminal event.
func TestResilienceRunPassesAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("audited resilience run in short mode")
	}
	p := QuickParams()
	p.Requests = 120
	outs := runStudy(t, p.ResilienceRuns(ScaledFaultPlan(phase(p))), scenario.RunOptions{})
	faulted := outs[1]
	for _, o := range outs {
		if o.Audit == nil {
			t.Fatalf("experiment %d: auditor did not run", o.Setup.ID)
		}
		if !o.Audit.OK() {
			t.Fatalf("experiment %d: %v", o.Setup.ID, o.Audit.Violations)
		}
	}
	c := faulted.Audit.Counts
	if c.Arrives != p.Requests {
		t.Fatalf("faulted run saw %d arrivals for %d requests", c.Arrives, p.Requests)
	}
	if c.Completes+c.Fails != p.Requests {
		t.Fatalf("faulted run not conserved: %+v", c)
	}
	if c.Fails != faulted.Fault.Lost {
		t.Fatalf("%d fail events but %d tasks lost", c.Fails, faulted.Fault.Lost)
	}
	if c.Redispatches != faulted.Fault.Redispatched {
		t.Fatalf("%d redispatch events but injector counted %d", c.Redispatches, faulted.Fault.Redispatched)
	}
	if !strings.Contains(FormatResilience(outs, true), "audit:") {
		t.Fatal("FormatResilience omits the audit verdict")
	}
	if strings.Contains(FormatResilience(outs, false), "audit:") {
		t.Fatal("FormatResilience prints the audit verdict unasked")
	}
}

// TestRunnerAuditMatchesReplay pins scenario.Run's streaming audit
// against the replay entry point: on the Exp 4/5/7 quick specs, the
// Observer fed live by the grid must reach the verdict audit.Check
// reaches over the same run's retained trace.
func TestRunnerAuditMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("audited runs in short mode")
	}
	p := QuickParams()
	p.Requests = 120
	cases := []struct {
		name string
		spec scenario.Spec
	}{
		{"exp4", p.ResilienceRuns(ScaledFaultPlan(phase(p)))[1].Spec},
		{"exp5", p.MigrationRuns(ScaledDegradedPlan(phase(p)), DefaultMigrationPolicy())[1].Spec},
		{"exp7", p.MembershipRuns(DefaultChurnPlan(), DefaultRebalancePolicy())[1].Spec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.NewRecorder(8*c.spec.Arrivals.Count + 64)
			out, err := scenario.Run(c.spec, scenario.RunOptions{Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			resources, err := c.spec.Topology.Build()
			if err != nil {
				t.Fatal(err)
			}
			replay := audit.Check(audit.Run{
				Events:     rec.Events(),
				Records:    out.Records,
				Dispatches: out.Dispatches,
				Nodes:      core.NodeCounts(resources, c.spec.ChurnPlan()),
				Report:     out.Report,
				Dropped:    rec.Dropped(),
			})
			if !out.Audit.OK() {
				t.Fatalf("streamed audit: %v", out.Audit.Violations)
			}
			if got, want := out.Audit.Summary(), replay.Summary(); got != want {
				t.Fatalf("streamed audit diverges from the replay:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRunAllTracesExperimentThreeOnly is the contract behind `gridexp
// -tracefile` in experiment mode: a recorder handed to RunStudy with the
// Table 2 study goes to its last run, experiment 3, and nothing else — one arrive per request, every
// request ID once — so the streamed CSV is a trace audit.Check can
// replay against experiment 3's records.
func TestRunAllTracesExperimentThreeOnly(t *testing.T) {
	p := QuickParams()
	p.Requests = 60
	var csvOut strings.Builder
	sink := trace.NewCSVSink(&csvOut)
	rec := trace.NewRecorder(8*p.Requests + 64)
	rec.AddSink(sink)
	outs := runStudy(t, p.CaseStudyRuns(), scenario.RunOptions{Trace: rec})
	if err := sink.Close(rec.Dropped()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	arrived := map[string]bool{}
	for _, row := range rows[1:] {
		if row[2] != trace.KindArrive.String() {
			continue
		}
		if arrived[row[3]] {
			t.Fatalf("request %s arrives twice: more than one run shares the trace", row[3])
		}
		arrived[row[3]] = true
	}
	if len(arrived) != p.Requests {
		t.Fatalf("trace holds %d arrivals for %d requests", len(arrived), p.Requests)
	}
	exp3 := outs[2]
	replay := audit.Check(audit.Run{
		Events:     rec.Events(),
		Records:    exp3.Records,
		Dispatches: exp3.Dispatches,
		Nodes:      core.NodeCounts(scenario.Fig7Resources(), nil),
		Report:     exp3.Report,
		Dropped:    rec.Dropped(),
	})
	if !replay.OK() {
		t.Fatalf("experiment-3 trace fails the replay audit: %v", replay.Violations)
	}
}
