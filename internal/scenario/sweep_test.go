package scenario_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// sweep builds the points of a sweep and runs them as one study, as
// gridexp -sweep does.
func sweep(t *testing.T, spec scenario.Spec, axis string, values []float64, opt scenario.RunOptions) []experiment.Outcome {
	t.Helper()
	specs, err := scenario.SweepSpecs(spec, axis, values)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]experiment.Run, len(specs))
	for i, s := range specs {
		runs[i] = experiment.Run{Label: axis, Spec: s}
	}
	outs, err := experiment.RunStudy(runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestSweepDeterminism(t *testing.T) {
	spec := scenario.SmallSpec()
	spec.Arrivals.Count = 80
	values := []float64{1, 2, 4}
	a := sweep(t, spec, scenario.AxisRate, values, scenario.RunOptions{Workers: 1})
	b := sweep(t, spec, scenario.AxisRate, values, scenario.RunOptions{Workers: 3})
	if len(a) != len(values) || len(b) != len(values) {
		t.Fatalf("sweep lengths %d %d, want %d", len(a), len(b), len(values))
	}
	for i := range a {
		if !reflect.DeepEqual(scenario.StripHost(a[i].Result), scenario.StripHost(b[i].Result)) {
			t.Fatalf("sweep point %d differs across worker widths", i)
		}
	}
	// Per-point seeds are split off the master up front, so two points
	// never share a stream.
	if a[0].Result.Seed == a[1].Result.Seed {
		t.Fatalf("sweep points share seed %d", a[0].Result.Seed)
	}
}

func TestSweepSeedAxisUsesValueAsSeed(t *testing.T) {
	spec := scenario.SmallSpec()
	spec.Arrivals.Count = 40
	pts := sweep(t, spec, scenario.AxisSeed, []float64{7, 11}, scenario.RunOptions{})
	if pts[0].Result.Seed != 7 || pts[1].Result.Seed != 11 {
		t.Fatalf("seed axis seeds %d %d, want 7 11", pts[0].Result.Seed, pts[1].Result.Seed)
	}
}

func TestSweepAgentsAxisRejectsPreset(t *testing.T) {
	if _, err := scenario.SweepSpecs(scenario.Fig7(), scenario.AxisAgents, []float64{8, 16}); err == nil {
		t.Fatal("agents axis over a preset topology accepted")
	}
}

// TestSweepReportFormats: a sweep's outcomes marshal as the -out runs
// list (label, spec, result) and render as the sweep table.
func TestSweepReportFormats(t *testing.T) {
	spec := scenario.SmallSpec()
	spec.Arrivals.Count = 40
	values := []float64{1, 3}
	outs := sweep(t, spec, scenario.AxisRate, values, scenario.RunOptions{})

	blob, err := json.MarshalIndent(outs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"label"`, `"spec"`, `"result"`, `"eps_s"`, `"audit_ok"`, `"per_resource"`} {
		if !strings.Contains(string(blob), field) {
			t.Fatalf("JSON missing %s:\n%s", field, blob)
		}
	}
	table := experiment.FormatSweep(outs, scenario.AxisRate, values)
	if !strings.Contains(table, "Sweep of small over rate") {
		t.Fatalf("table header missing:\n%s", table)
	}
	if lines := strings.Split(strings.TrimSpace(table), "\n"); len(lines) != 5 {
		t.Fatalf("table has %d lines, want title, blank, header + 2 points:\n%s", len(lines), table)
	}
}

// TestSweepTelemetryPerPoint checks that concurrent sweep points keep
// isolated registries: each point's totals match its own workload.
func TestSweepTelemetryPerPoint(t *testing.T) {
	spec := scenario.SmallSpec()
	spec.Arrivals.Count = 60
	pts := sweep(t, spec, scenario.AxisRate, []float64{1, 3}, scenario.RunOptions{Telemetry: true, SamplePeriod: 20})
	for i, pt := range pts {
		exp := pt.Result.Telemetry
		if exp == nil {
			t.Fatalf("point %d has no telemetry", i)
		}
		if got := exp.Snapshot.Counters["grid_requests_total"]; got != uint64(pt.Result.Requests) {
			t.Fatalf("point %d: grid_requests_total = %d, want %d", i, got, pt.Result.Requests)
		}
	}
}
