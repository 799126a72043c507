package experiment

import (
	"testing"

	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// TestTelemetryTablesByteIdentical renders Table 1 and Table 3 from an
// instrumented and an uninstrumented run of the Table 2 sweep and
// requires the formatted bytes to match exactly: the registry observes
// the experiments, it never participates in them.
func TestTelemetryTablesByteIdentical(t *testing.T) {
	runs := QuickParams().CaseStudyRuns()
	plain := runStudy(t, runs, scenario.RunOptions{})
	instr := runStudy(t, runs, scenario.RunOptions{Telemetry: true, SamplePeriod: 10})

	if a, b := FormatTable3(plain), FormatTable3(instr); a != b {
		t.Fatalf("Table 3 diverged under telemetry:\n--- plain ---\n%s--- instrumented ---\n%s", a, b)
	}

	// Table 1 renders PACE predictions through an engine; an instrumented
	// engine (snapshot-time collector only) must predict identically.
	hw, _ := pace.LookupHardware("SGIOrigin2000")
	lib := pace.CaseStudyLibrary()
	t1plain, err := FormatTable1(lib, pace.NewEngine(), hw, 16)
	if err != nil {
		t.Fatal(err)
	}
	instrEngine := pace.NewEngine()
	instrEngine.RegisterMetrics(telemetry.NewRegistry())
	t1instr, err := FormatTable1(lib, instrEngine, hw, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t1plain != t1instr {
		t.Fatal("Table 1 diverged under telemetry")
	}

	// Each outcome carries its own export with the right totals.
	for i, o := range instr {
		if o.Telemetry == nil {
			t.Fatalf("experiment %d missing telemetry", i+1)
		}
		if got := o.Telemetry.Snapshot.Counters["grid_requests_total"]; got != uint64(o.Requests) {
			t.Fatalf("experiment %d: grid_requests_total = %d, want %d", i+1, got, o.Requests)
		}
	}
	for i, o := range plain {
		if o.Telemetry != nil {
			t.Fatalf("uninstrumented experiment %d has telemetry", i+1)
		}
	}
}
