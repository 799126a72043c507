package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestRunTelemetry proves the observing-only contract at the scenario
// layer — identical results with the registry on or off — and that the
// export carries the registry totals and the virtual-time series.
func TestRunTelemetry(t *testing.T) {
	spec := smallSpec()
	plain, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Run(spec, RunOptions{Telemetry: true, SamplePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}

	p, q := stripHost(plain), stripHost(instr)
	q.Telemetry = nil
	// The sampler's periodic ticks are real simulator events, so the
	// executed-event count legitimately differs; every scheduling result
	// must not.
	p.SimEvents, q.SimEvents = 0, 0
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("telemetry changed scenario results:\noff: %+v\non:  %+v", p, q)
	}

	exp := instr.Telemetry
	if exp == nil || exp.Series == nil {
		t.Fatal("instrumented run exported no telemetry")
	}
	if got := exp.Snapshot.Counters["grid_requests_total"]; got != 120 {
		t.Fatalf("grid_requests_total = %d, want 120", got)
	}
	if len(exp.Series.Points) < 2 {
		t.Fatalf("series has %d points", len(exp.Series.Points))
	}
	if plain.Telemetry != nil {
		t.Fatal("uninstrumented run exported telemetry")
	}

	// The export must survive the JSON path gridexp -telemetry uses, and
	// stays out of the result, which -out writes.
	blob, err := json.Marshal(instr.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Export
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Snapshot.Counters["grid_requests_total"] != 120 {
		t.Fatal("telemetry lost in JSON round-trip")
	}
	if blob, err = json.Marshal(instr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"series"`) {
		t.Fatal("result JSON carries the telemetry export")
	}
}

// TestRunTelemetryRepeats runs the churn scenario twice with telemetry
// and requires the two exports to be identical, the wall-time histograms
// aside: every probe must read the grid in a fixed order, or the sums of
// grid-wide series such as grid_eps_s differ in their last bits.
func TestRunTelemetryRepeats(t *testing.T) {
	spec, err := Load("../../examples/scenarios/churn.json")
	if err != nil {
		t.Fatal(err)
	}
	var exports [2]*telemetry.Export
	for i := range exports {
		res, err := Run(spec, RunOptions{Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		exports[i] = withoutWallTime(res.Telemetry)
	}
	if !reflect.DeepEqual(exports[0], exports[1]) {
		a, _ := json.Marshal(exports[0])
		b, _ := json.Marshal(exports[1])
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("two runs export different telemetry, first at byte %d:\n%s\n%s", i, a[max(0, i-200):min(len(a), i+100)], b[max(0, i-200):min(len(b), i+100)])
			}
		}
		t.Fatal("two runs export different telemetry")
	}
}

// withoutWallTime drops every histogram that times the host, not the
// simulation, from e's snapshot and from each of its series points.
func withoutWallTime(e *telemetry.Export) *telemetry.Export {
	wall := func(name string) bool {
		return strings.Contains(name, "sched_plan_latency_s") || strings.Contains(name, "_wall_")
	}
	for name := range e.Snapshot.Histograms {
		if wall(name) {
			delete(e.Snapshot.Histograms, name)
		}
	}
	for _, p := range e.Series.Points {
		for name := range p.V {
			if wall(name) {
				delete(p.V, name)
			}
		}
	}
	return e
}
