package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// testPolicy is tuned to the test workload below: fft on the slow
// resource runs 108 s (432 s degraded), so completions are sparse and a
// 50 s check window with no hysteresis catches the first one that lands
// inside the 480 s request phase.
func testPolicy() MigrationPolicy {
	return MigrationPolicy{Enabled: true, CheckPeriod: 50, Window: 1}
}

// degradedGrid builds the three-resource grid with the slow resource
// degraded 4x for the whole run and a steady trickle of work submitted
// to it under loose deadlines (so §3.2 local-first keeps the queue
// local and the migration policy — not initial matchmaking — is what
// moves work).
func degradedGrid(t testing.TB, pol MigrationPolicy, extra ...fault.Event) (*Grid, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(1024)
	plan := &fault.Plan{Events: append([]fault.Event{
		{At: 0, Kind: fault.Degrade, Agent: "slow", Factor: 4},
		{At: 2000, Kind: fault.Restore, Agent: "slow"},
	}, extra...)}
	g := smallGrid(t, Options{
		UseAgents: true,
		Seed:      2003,
		Trace:     rec,
		FaultPlan: plan,
		Migration: pol,
	})
	for i := 0; i < 24; i++ {
		if err := g.SubmitAt(float64(i)*20, "slow", "fft", 4000); err != nil {
			t.Fatal(err)
		}
	}
	return g, rec
}

func auditRun(t testing.TB, g *Grid, rec *trace.Recorder) audit.Result {
	t.Helper()
	report, err := g.Metrics(0)
	if err != nil {
		t.Fatal(err)
	}
	return audit.Check(audit.Run{
		Events:     rec.Events(),
		Records:    g.Records(),
		Dispatches: g.Dispatches(),
		Nodes:      g.NodesByResource(),
		Report:     report,
		Dropped:    rec.Dropped(),
	})
}

func TestMigrationRequiresAgents(t *testing.T) {
	_, err := New([]ResourceSpec{
		{Name: "only", Hardware: "SGIOrigin2000", Nodes: 8},
	}, Options{Migration: MigrationPolicy{Enabled: true}})
	if err == nil || !strings.Contains(err.Error(), "UseAgents") {
		t.Fatalf("err = %v, want UseAgents requirement", err)
	}
}

func TestMigrationMovesWorkOffDegradedNode(t *testing.T) {
	g, rec := degradedGrid(t, testPolicy())
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.MigrationStats()
	if st.Breaches == 0 {
		t.Fatal("a 4x-degraded resource never breached the drift threshold")
	}
	if st.Accepts == 0 {
		t.Fatalf("no task migrated: %+v", st)
	}
	moved := 0
	for _, r := range g.Records() {
		if r.Resource != "slow" {
			moved++
		}
	}
	if moved < st.Accepts {
		t.Fatalf("%d records off the degraded resource, %d migrations accepted", moved, st.Accepts)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindMigrateOffer] != st.Offers ||
		byKind[trace.KindMigrateWithdraw] != st.Accepts ||
		byKind[trace.KindMigrateRedispatch] != st.Accepts {
		t.Fatalf("trace events offer/withdraw/redispatch = %d/%d/%d, stats %+v",
			byKind[trace.KindMigrateOffer], byKind[trace.KindMigrateWithdraw],
			byKind[trace.KindMigrateRedispatch], st)
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestMigrationDisabledIsInert pins the byte-identity contract from the
// other side: an *enabled* policy whose threshold can never be breached
// must produce the exact records of a disabled one — the drift checks
// themselves observe, and never perturb, the simulation.
func TestMigrationDisabledIsInert(t *testing.T) {
	run := func(pol MigrationPolicy) []scheduler.Record {
		g, _ := degradedGrid(t, pol)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Records()
	}
	off := run(MigrationPolicy{})
	inert := run(MigrationPolicy{Enabled: true, DriftThreshold: 1e12})
	if !reflect.DeepEqual(off, inert) {
		t.Fatal("an unbreachable enabled policy changed the run against a disabled one")
	}
}

// TestMigrationWithOverlappingPartition cuts the slow–fast link for the
// whole degradation window: the origin's only offer target is its upper
// agent, so every offer round must find no reachable target and the
// queue must drain locally — slowly, but exactly once per task.
func TestMigrationWithOverlappingPartition(t *testing.T) {
	g, rec := degradedGrid(t, testPolicy(),
		fault.Event{At: 0, Kind: fault.Cut, A: "slow", B: "fast"},
		fault.Event{At: 2000, Kind: fault.Heal, A: "slow", B: "fast"},
	)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.MigrationStats()
	if st.Breaches == 0 {
		t.Fatal("degradation went unnoticed")
	}
	if byKind := countKinds(rec); byKind[trace.KindMigrateRedispatch] != 0 {
		t.Fatalf("%d tasks migrated across a cut link", byKind[trace.KindMigrateRedispatch])
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s", res.Summary())
	}
}

// TestMigrationRacesCrashRedispatch overlaps the two rescue mechanisms:
// the drift policy starts offering tasks off the degraded resource, and
// then the resource crashes outright, handing whatever is still queued
// to the injector's failure re-dispatch. Both paths re-place work under
// the same grid-wide ReqIDs; the audit proves no task ran twice or
// vanished in the scramble. (Run under -race in CI.)
func TestMigrationRacesCrashRedispatch(t *testing.T) {
	// The crash lands just after the t=450 offer round: migration has
	// already moved part of the queue (MaxPerRound keeps it from taking
	// everything) when failure re-dispatch grabs the rest.
	pol := testPolicy()
	pol.MaxPerRound = 4
	g, rec := degradedGrid(t, pol,
		fault.Event{At: 455, Kind: fault.Crash, Agent: "slow"},
		fault.Event{At: 600, Kind: fault.Recover, Agent: "slow"},
	)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	byKind := countKinds(rec)
	if byKind[trace.KindRedispatch] == 0 {
		t.Fatal("the crash re-dispatched nothing; the race never happened")
	}
	if byKind[trace.KindMigrateRedispatch] == 0 {
		t.Fatal("no migration before the crash; the race never happened")
	}
	if len(g.Records()) != 24 {
		t.Fatalf("completed %d of 24 tasks", len(g.Records()))
	}
	if res := auditRun(t, g, rec); !res.OK() {
		t.Fatalf("audit failed: %s\n%v", res.Summary(), res.Violations[:min(len(res.Violations), 5)])
	}
}

// TestMigrationDeterministic runs the full degraded+migration scenario
// twice and demands identical records and stats.
func TestMigrationDeterministic(t *testing.T) {
	run := func() ([]scheduler.Record, MigrationStats) {
		g, _ := degradedGrid(t, testPolicy())
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Records(), g.MigrationStats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) || s1 != s2 {
		t.Fatalf("two identical migration runs diverged: %+v vs %+v", s1, s2)
	}
}
