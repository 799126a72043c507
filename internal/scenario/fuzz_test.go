package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// FuzzLoadSpec feeds arbitrary bytes to Load as a scenario file. Load
// must never panic, and a spec it accepts must survive the file format:
// re-encoded to JSON and loaded again it is the same spec. Seeded with
// every example scenario and the benchmark workloads.
func FuzzLoadSpec(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{"../../examples/scenarios/*.json", "../../bench/workloads/sim-*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed scenarios found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	trace, err := os.ReadFile("../../examples/scenarios/replay-trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// The replay example's trace sits next to the spec, as in
		// examples/scenarios, so trace_file specs load too.
		if err := os.WriteFile(filepath.Join(dir, "replay-trace.csv"), trace, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := Load(path)
		if err != nil {
			return
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("loaded spec does not encode: %v", err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("re-encoded spec does not load: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("spec changed across a load:\nfirst  %s\nsecond %s", first, second)
		}
	})
}

// FuzzLoadTraceCSV feeds arbitrary bytes to LoadTraceCSV as a trace
// file. It must never panic, and any times it returns must be a trace
// that workload.TraceReplay accepts: finite, non-negative and in order.
// Seeded with the replay example's trace.
func FuzzLoadTraceCSV(f *testing.F) {
	trace, err := os.ReadFile("../../examples/scenarios/replay-trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace)
	f.Add([]byte("time_s\n0.5\nNaN\n"))
	f.Add([]byte("1,a\ninf,b\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		times, err := LoadTraceCSV(path)
		if err != nil {
			return
		}
		if err := (workload.TraceReplay{At: times}).Validate(); err != nil {
			t.Fatalf("LoadTraceCSV returned times the replay rejects: %v\n%v", err, times)
		}
	})
}
