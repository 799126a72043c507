package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// specFiles lists every scenario file the repository ships: the
// examples and the benchmark workloads (fingerprints.json pins results,
// it is not a spec).
func specFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	for _, pattern := range []string{
		"../../examples/scenarios/*.json",
		"../../examples/scenarios/regress/*.json",
		"../../bench/workloads/*.json",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			if filepath.Base(p) != "fingerprints.json" {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files found")
	}
	return paths
}

// TestSpecFilesGolden loads every shipped scenario file and pins its
// re-encoding to testdata/specs.golden: the JSON shape of every spec
// section, key order included, is the file format, so a change to the
// types behind a section must leave it byte-identical.
func TestSpecFilesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, path := range specFiles(t) {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(spec, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n%s\n", strings.TrimPrefix(filepath.ToSlash(path), "../../"), out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "specs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded specs differ from testdata/specs.golden:\n%s", got.String())
	}
}

// relocationTrace runs the scenario file with a streamed lifecycle
// trace, as gridexp -tracefile does, and returns the whole CSV and its
// migrate-* rows.
func relocationTrace(t *testing.T, path string) (csv string, rows []string) {
	t.Helper()
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink := trace.NewCSVSink(&b)
	rec := trace.NewRecorder(1)
	rec.SetRetention(false)
	rec.AddSink(sink)
	res, err := Run(spec, RunOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuditOK {
		t.Fatalf("audit failed: %s", res.AuditSummary)
	}
	if err := sink.Close(0); err != nil {
		t.Fatal(err)
	}
	csv = b.String()
	for _, line := range strings.Split(csv, "\n") {
		if f := strings.SplitN(line, ",", 4); len(f) == 4 && strings.HasPrefix(f[2], "migrate-") {
			rows = append(rows, line)
		}
	}
	return csv, rows
}

// TestRelocationTraceGolden pins the two relocation paths: drift
// migration on the degraded Fig. 7 run and leave-drain on the
// churn-plus-crash regression. Each golden holds the SHA-256 of the
// whole lifecycle CSV and the migrate-* rows verbatim, so a drift shows
// the rows that moved.
func TestRelocationTraceGolden(t *testing.T) {
	for _, c := range []struct{ spec, golden string }{
		{"../../examples/scenarios/degraded.json", "relocate-degraded.csv"},
		{"../../examples/scenarios/regress/churn-crash.json", "relocate-churn-crash.csv"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			csv, rows := relocationTrace(t, c.spec)
			got := fmt.Sprintf("# sha256 %x\n%s\n", sha256.Sum256([]byte(csv)), strings.Join(rows, "\n"))
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("relocation trace differs from testdata/%s:\n%s", c.golden, got)
			}
		})
	}
}
