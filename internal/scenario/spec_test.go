package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

func TestFig7PresetTopology(t *testing.T) {
	specs, err := TopologySpec{Preset: PresetFig7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("fig7 preset has %d resources, want 12", len(specs))
	}
	if specs[0].Name != "S1" || specs[0].Parent != "" {
		t.Fatalf("fig7 head = %+v, want S1 at the root", specs[0])
	}
	if specs[11].Hardware != "SunSPARCstation2" {
		t.Fatalf("S12 hardware %q, want SunSPARCstation2", specs[11].Hardware)
	}
	if _, err := (TopologySpec{Preset: "fig8"}).Build(); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := (TopologySpec{Preset: PresetFig7, Agents: 5}).Build(); err == nil {
		t.Fatal("preset plus generated fields accepted")
	}
}

func TestGeneratedTopology(t *testing.T) {
	spec := TopologySpec{Agents: 13, Branching: 3, NodeMix: []int{16, 8}, Hardware: []string{"SGIOrigin2000", "SunUltra5"}}
	specs, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 13 {
		t.Fatalf("%d resources, want 13", len(specs))
	}
	if specs[0].Parent != "" {
		t.Fatalf("A1 has parent %q, want the head", specs[0].Parent)
	}
	// Branching 3: A2..A4 under A1, A5..A7 under A2, ...
	if specs[1].Parent != "A1" || specs[3].Parent != "A1" || specs[4].Parent != "A2" || specs[12].Parent != "A4" {
		t.Fatalf("tree wiring wrong: %v %v %v %v", specs[1].Parent, specs[3].Parent, specs[4].Parent, specs[12].Parent)
	}
	// Mixes cycle.
	if specs[0].Nodes != 16 || specs[1].Nodes != 8 || specs[2].Nodes != 16 {
		t.Fatalf("node mix not cycling: %d %d %d", specs[0].Nodes, specs[1].Nodes, specs[2].Nodes)
	}
	if specs[0].Hardware != "SGIOrigin2000" || specs[1].Hardware != "SunUltra5" || specs[2].Hardware != "SGIOrigin2000" {
		t.Fatalf("hardware mix not cycling: %v %v %v", specs[0].Hardware, specs[1].Hardware, specs[2].Hardware)
	}

	if _, err := (TopologySpec{}).Build(); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := (TopologySpec{Agents: 3, Hardware: []string{"PDP11"}}).Build(); err == nil {
		t.Fatal("unknown hardware accepted")
	}
	if _, err := (TopologySpec{Agents: 3, Nodes: 65}).Build(); err == nil {
		t.Fatal("node count beyond the 64-bit mask accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Fig7()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := good
	for _, name := range []string{"round-robin", "sa", "tabu"} {
		bad.Policy = name
		err := bad.Validate()
		if err == nil {
			t.Fatalf("policy %q accepted", name)
		}
		if !strings.Contains(err.Error(), "fifo, fifo-fast or ga") {
			t.Fatalf("policy %q rejected without naming the accepted list: %v", name, err)
		}
	}

	bad = good
	bad.Arrivals.Count = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero request count accepted")
	}

	bad = good
	bad.Arrivals = ArrivalSpec{Process: "poisson", Count: 10, Rate: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative poisson rate accepted")
	}

	// Fault plans demand agents and known names.
	off := false
	bad = good
	bad.Faults = &fault.Plan{Events: []fault.Event{{At: 10, Kind: fault.Crash, Agent: "S2"}}}
	bad.UseAgents = &off
	if err := bad.Validate(); err == nil {
		t.Fatal("fault plan without agents accepted")
	}
	bad.UseAgents = nil
	if err := bad.Validate(); err != nil {
		t.Fatalf("valid fault plan rejected: %v", err)
	}
	bad.Faults.Events[0].Agent = "S99"
	if err := bad.Validate(); err == nil {
		t.Fatal("fault plan naming an unknown agent accepted")
	}

	// The study knobs: finite, non-negative, entry agents in the tree.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(*Spec)
	}{
		{"negative advert_ttl", func(s *Spec) { s.AdvertTTL = -1 }},
		{"infinite advert_ttl", func(s *Spec) { s.AdvertTTL = inf }},
		{"negative prediction_error", func(s *Spec) { s.PredictionError = -0.1 }},
		{"NaN prediction_error", func(s *Spec) { s.PredictionError = nan }},
		{"prediction_bias of -1", func(s *Spec) { s.PredictionBias = -1 }},
		{"infinite prediction_bias", func(s *Spec) { s.PredictionBias = inf }},
		{"NaN deadline_scale", func(s *Spec) { s.DeadlineScale = nan }},
		{"unknown entry agent", func(s *Spec) { s.EntryAgents = []string{"S3", "S13"} }},
		{"agent count past the maximum", func(s *Spec) {
			s.Topology = TopologySpec{Agents: maxAgents + 1}
		}},
		{"agent count that overflows an allocation", func(s *Spec) {
			s.Topology = TopologySpec{Agents: 4611686018427387904}
		}},
	} {
		bad := Fig7()
		c.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	ok := Fig7()
	ok.AdvertTTL, ok.PredictionError, ok.PredictionBias = 30, 0.2, -0.5
	ok.EntryAgents = []string{"S3", "S12"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid study knobs rejected: %v", err)
	}

	// A hostile file is an error, not a panic.
	path := filepath.Join(t.TempDir(), "hostile.json")
	body := `{"seed":1,"topology":{"agents":4611686018427387904},"arrivals":{"count":1}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Fatalf("hostile agent count: %v", err)
	}
}

func TestLoadScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crowd.json")
	body := `{
 "seed": 7,
 "topology": {"agents": 6, "branching": 2, "nodes": 8},
 "arrivals": {"process": "flashcrowd", "count": 50, "base_rate": 1, "peak_rate": 10, "ramp_start": 10, "ramp_duration": 5, "hold": 10},
 "app_weights": {"fft": 2, "cpi": 1},
 "deadline_scale": 0.8,
 "policy": "ga"
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "crowd" {
		t.Fatalf("name %q, want basename default", spec.Name)
	}
	proc, err := spec.Arrivals.BuildProcess()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proc.(workload.FlashCrowd); !ok {
		t.Fatalf("process %T, want FlashCrowd", proc)
	}

	// Unknown fields are typos, not extensions.
	bad := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(bad, []byte(`{"seed": 1, "topolgy": {"agents": 3}, "arrivals": {"count": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

// TestLoadRejectsGAWorkers: the GA has no evaluation width to set, so a
// spec that still asks for one is refused, not run at another setting.
func TestLoadRejectsGAWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workers.json")
	body := `{"topology": {"preset": "fig7"}, "arrivals": {"count": 10, "interval": 1}, "policy": "ga", "ga": {"workers": 4}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), `unknown field "workers"`) {
		t.Fatalf("ga.workers: err = %v, want an unknown-field error", err)
	}
}

func TestLoadTraceFile(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "arrivals.csv")
	if err := os.WriteFile(trace, []byte("# recorded arrivals\ntime_s,source\n0.0,portal\n1.5,portal\n2.25,portal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "replay.json")
	body := `{
 "seed": 3,
 "topology": {"preset": "fig7"},
 "arrivals": {"process": "trace", "count": 100, "trace_file": "arrivals.csv"}
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 2.25}
	if len(spec.Arrivals.Times) != len(want) {
		t.Fatalf("loaded %v, want %v", spec.Arrivals.Times, want)
	}
	for i, v := range want {
		if spec.Arrivals.Times[i] != v {
			t.Fatalf("time %d = %v, want %v", i, spec.Arrivals.Times[i], v)
		}
	}

	// The trace is inlined: the loaded spec re-encodes to a file that
	// loads on its own.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("re-encoded spec does not load: %v\n%s", err, data)
	}
}

// TestLoadTraceFileRejectsNonFinite: a NaN or infinite arrival in a
// trace file is a load error. Both once reached the simulator, where
// NaN panicked in PACE and +Inf ran out the event budget.
func TestLoadTraceFileRejectsNonFinite(t *testing.T) {
	for _, line := range []string{"NaN", "inf", "+Inf", "-inf"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "arrivals.csv"), []byte("time_s\n0.5\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "replay.json")
		body := `{"topology": {"preset": "fig7"}, "arrivals": {"process": "trace", "count": 10, "trace_file": "arrivals.csv"}}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("trace arrival %q accepted", line)
		}
	}
}

func TestArrivalRateScaling(t *testing.T) {
	cases := []ArrivalSpec{
		{Process: "fixed", Count: 10, Interval: 2},
		{Process: "poisson", Count: 10, Rate: 3},
		{Process: "flashcrowd", Count: 10, BaseRate: 1, PeakRate: 10, RampStart: 5, RampDuration: 5, Hold: 5},
	}
	for _, c := range cases {
		scaled, err := c.WithMeanRate(4)
		if err != nil {
			t.Fatalf("%s: %v", c.Process, err)
		}
		got, err := scaled.MeanRate()
		if err != nil {
			t.Fatal(err)
		}
		if diff := got - 4; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: scaled mean rate %v, want 4", c.Process, got)
		}
	}
	// Shape is preserved: the flash crowd keeps its peak/base ratio.
	scaled, _ := cases[2].WithMeanRate(7)
	if ratio := scaled.PeakRate / scaled.BaseRate; ratio != 10 {
		t.Fatalf("flashcrowd peak/base ratio %v after scaling, want 10", ratio)
	}
	if _, err := (ArrivalSpec{Process: "trace", Times: []float64{1}}).WithMeanRate(2); err == nil {
		t.Fatal("trace rate scaling accepted")
	}
}

func TestParseAxis(t *testing.T) {
	axis, vals, err := ParseAxis("rate=0.5,1,2.5")
	if err != nil {
		t.Fatal(err)
	}
	if axis != "rate" || len(vals) != 3 || vals[2] != 2.5 {
		t.Fatalf("ParseAxis = %q %v", axis, vals)
	}
	for _, bad := range []string{"rate", "=1,2", "rate=", "rate=a,b"} {
		if _, _, err := ParseAxis(bad); err == nil {
			t.Fatalf("ParseAxis(%q) accepted", bad)
		}
	}
}
