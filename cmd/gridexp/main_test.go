package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gridexp: re-executed with
// GRIDEXP_TEST_MAIN=1 it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("GRIDEXP_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// gridexp runs the CLI on args and returns its combined output and exit
// error.
func gridexp(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRIDEXP_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestExperimentModeTracefile runs `gridexp -table3 -tracefile`: the
// file is what the flag's help promises — the experiment-3 lifecycle
// trace, one arrive row per request and every request ID once, in
// virtual-time order — and the run it came from audits clean.
func TestExperimentModeTracefile(t *testing.T) {
	const requests = 60
	path := filepath.Join(t.TempDir(), "trace.csv")
	out, err := gridexp("-table3", "-requests", "60", "-audit", "-tracefile", path)
	if err != nil {
		t.Fatalf("gridexp: %v\n%s", err, out)
	}
	if !strings.Contains(out, "[experiment 3] audit: 60 requests: 60 arrives, 60 completes, 0 fails, 0 redispatches, 60 records; 0 violation(s)") {
		t.Fatalf("experiment 3 did not audit clean:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ","); got != "seq,time,kind,request,agent,resource,task,app,detail" {
		t.Fatalf("header %q", got)
	}
	arrived := map[string]bool{}
	for _, row := range rows[1:] {
		if row[2] == "arrive" {
			if arrived[row[3]] {
				t.Fatalf("request %s arrives twice", row[3])
			}
			arrived[row[3]] = true
		}
	}
	if len(arrived) != requests {
		t.Fatalf("%d arrive rows for %d requests", len(arrived), requests)
	}
}

// TestRemovedPolicyNamesRejected feeds a scenario naming a deleted
// policy through the CLI: it must fail and say which names remain.
func TestRemovedPolicyNamesRejected(t *testing.T) {
	for _, name := range []string{"sa", "tabu"} {
		path := filepath.Join(t.TempDir(), name+".json")
		spec := `{"topology": {"preset": "fig7"}, "arrivals": {"count": 10, "interval": 1}, "policy": "` + name + `"}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := gridexp("-scenario", path)
		if err == nil {
			t.Fatalf("policy %q accepted:\n%s", name, out)
		}
		if !strings.Contains(out, "fifo, fifo-fast or ga") {
			t.Fatalf("policy %q rejected without the accepted list:\n%s", name, out)
		}
	}
}

// TestScaleAuditsEverySize runs `gridexp -scale -audit`: every grid size
// of the study prints its own clean verdict.
func TestScaleAuditsEverySize(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability study in short mode")
	}
	out, err := gridexp("-scale", "-audit")
	if err != nil {
		t.Fatalf("gridexp: %v\n%s", err, out)
	}
	for _, n := range []int{6, 12, 24, 48} {
		prefix := fmt.Sprintf("[scale n=%d] audit: %d requests: ", n, 50*n)
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("no verdict for %d agents:\n%s", n, out)
		}
		if line, _, _ := strings.Cut(out[i:], "\n"); !strings.HasSuffix(line, "; 0 violation(s)") {
			t.Fatalf("%d agents did not audit clean: %s", n, line)
		}
	}
}

// stripWallTime drops the lines that differ between identical runs: the
// wall-time lines, and the lines naming an output file.
func stripWallTime(out string) string {
	var keep []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, "wall time") && !strings.HasPrefix(line, "results written to ") &&
			!strings.HasPrefix(line, "telemetry written to ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// TestTelemetryExportsEveryStudyRun: `gridexp -telemetry` writes one
// export per study run, keyed by the run's label, and instrumenting the
// runs leaves the printed reports untouched.
func TestTelemetryExportsEveryStudyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies in short mode")
	}
	args := []string{"-exp4", "-exp5", "-accuracy", "-scale", "-requests", "60"}
	plain, err := gridexp(args...)
	if err != nil {
		t.Fatalf("gridexp: %v\n%s", err, plain)
	}
	path := filepath.Join(t.TempDir(), "telemetry.json")
	instr, err := gridexp(append(args, "-telemetry", path)...)
	if err != nil {
		t.Fatalf("gridexp -telemetry: %v\n%s", err, instr)
	}
	if a, b := stripWallTime(plain), stripWallTime(instr); a != b {
		t.Fatalf("reports diverge under -telemetry:\n--- plain ---\n%s--- instrumented ---\n%s", a, b)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var exports map[string]json.RawMessage
	if err := json.Unmarshal(data, &exports); err != nil {
		t.Fatal(err)
	}
	want := []string{"exp3_baseline", "exp4_faulted", "exp5_degraded", "exp5_migrated",
		"scale_n_6", "scale_n_12", "scale_n_24", "scale_n_48"}
	for _, c := range []string{"0_bias_0", "0.2_bias_0", "0.5_bias_0", "0.2_bias_0.1", "0.2_bias_0.25", "0.2_bias_0.5"} {
		want = append(want, "accuracy_scatter_"+c)
	}
	for _, key := range want {
		if _, ok := exports[key]; !ok {
			t.Errorf("no telemetry export %q", key)
		}
	}
	if len(exports) != len(want) {
		t.Fatalf("%d telemetry exports for %d runs", len(exports), len(want))
	}
}

// TestTracefileNeedsCaseStudy: -tracefile records experiment 3, so a
// run that selects no Table 2 output rejects it instead of exiting 0
// with no file.
func TestTracefileNeedsCaseStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	rejected(t, path, "-tracefile records experiment 3", "-exp4", "-requests", "30", "-tracefile", path)
}

// TestExtensionStudiesMatchGolden pins every extension study's report,
// audit verdicts and -out document to the goldens in testdata
// (wall-clock seconds zeroed).
func TestExtensionStudiesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies in short mode")
	}
	path := filepath.Join(t.TempDir(), "results.json")
	out, err := gridexp("-exp4", "-exp5", "-exp6", "-exp7", "-accuracy", "-scale",
		"-requests", "60", "-audit", "-out", path)
	if err != nil {
		t.Fatalf("gridexp: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "extensions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stripWallTime(out); got != string(want) {
		t.Fatalf("stdout differs from testdata/extensions.txt:\n%s", got)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = os.ReadFile(filepath.Join("testdata", "extensions.json")); err != nil {
		t.Fatal(err)
	}
	if masked := maskWallClock(string(got)); masked != string(want) {
		t.Fatalf("-out differs from testdata/extensions.json:\n%s", masked)
	}
}

// TestAuditVerdictsBothModes: every run is audited, but a clean verdict
// line prints only under -audit — for experiments 1–3 and Experiment 6
// alike, which once printed its verdicts whether asked or not, and for a
// scenario run and each sweep point, which once printed none. In scenario
// mode the run's own report always carries its audit line, so there the
// quiet run is checked for the labelled verdicts alone.
func TestAuditVerdictsBothModes(t *testing.T) {
	exp6 := []string{"[experiment 1]", "[experiment 2]", "[experiment 3]"}
	for _, share := range []string{"0", "0.1", "0.2", "0.3"} {
		exp6 = append(exp6, "[exp6 share="+share+"]")
	}
	for _, mode := range []struct {
		args          []string
		scopes        []string
		requests      int
		quietNoMarker string
	}{
		{[]string{"-table3", "-exp6", "-requests", "60"}, exp6, 60, "audit:"},
		{[]string{"-scenario", smokeSpec}, []string{"[scenario]"}, 150, "] audit:"},
		{[]string{"-scenario", smokeSpec, "-sweep", "rate=1,2"}, []string{"[rate=1]", "[rate=2]"}, 150, "] audit:"},
	} {
		args := mode.args
		quiet, err := gridexp(args...)
		if err != nil {
			t.Fatalf("gridexp %v: %v\n%s", args, err, quiet)
		}
		if strings.Contains(quiet, mode.quietNoMarker) {
			t.Fatalf("clean verdicts printed without -audit:\n%s", quiet)
		}
		if strings.Contains(quiet, "audit: audit:") {
			t.Fatalf("audit summary prefixed twice:\n%s", quiet)
		}
		loud, err := gridexp(append(args, "-audit")...)
		if err != nil {
			t.Fatalf("gridexp %v -audit: %v\n%s", args, err, loud)
		}
		for _, scope := range mode.scopes {
			i := strings.Index(loud, fmt.Sprintf("%s audit: %d requests: ", scope, mode.requests))
			if i < 0 {
				t.Fatalf("no verdict for %s under -audit:\n%s", scope, loud)
			}
			if line, _, _ := strings.Cut(loud[i:], "\n"); !strings.HasSuffix(line, "; 0 violation(s)") {
				t.Fatalf("%s did not audit clean: %s", scope, line)
			}
		}
	}
}

const smokeSpec = "../../examples/scenarios/smoke.json"

// maskWallClock zeroes the host seconds, the one field of an -out
// document that differs between identical runs.
func maskWallClock(export string) string {
	return regexp.MustCompile(`("wall_clock_s": )[0-9.eE+-]+`).ReplaceAllString(export, "${1}0")
}

// TestSweepExportsMatchGolden pins a two-point rate sweep's -out
// document to the golden in testdata (wall-clock seconds zeroed).
func TestSweepExportsMatchGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	out, err := gridexp("-scenario", smokeSpec, "-sweep", "rate=1,2", "-out", path)
	if err != nil {
		t.Fatalf("gridexp: %v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if masked := maskWallClock(string(got)); masked != string(want) {
		t.Fatalf("-out differs from testdata/sweep.json:\n%s", masked)
	}
}

// exportedRun is one entry of an -out document's runs list, its spec
// and result kept as raw JSON.
type exportedRun struct {
	Label  string          `json:"label"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// exportedRuns runs gridexp with -out and returns the document's runs by
// label.
func exportedRuns(t *testing.T, args ...string) map[string]exportedRun {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	if out, err := gridexp(append(args, "-out", path)...); err != nil {
		t.Fatalf("gridexp %v: %v\n%s", args, err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Runs []exportedRun }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	runs := map[string]exportedRun{}
	for _, r := range doc.Runs {
		runs[r.Label] = r
	}
	return runs
}

// TestExportedRunsReproduce: every exported spec is a scenario file that
// re-runs to its run's result — a Table 3 run, an Experiment 6 share and
// a sweep point, each fed back through `gridexp -scenario`.
func TestExportedRunsReproduce(t *testing.T) {
	exp := exportedRuns(t, "-table3", "-exp6", "-requests", "60")
	sweep := exportedRuns(t, "-scenario", smokeSpec, "-sweep", "rate=1,2")
	for _, run := range []exportedRun{exp["experiment 1"], exp["exp6 share=0.2"], sweep["rate=2"]} {
		if run.Spec == nil {
			t.Fatalf("run missing from the export: %+v", run)
		}
		specPath := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(specPath, run.Spec, 0o644); err != nil {
			t.Fatal(err)
		}
		again := exportedRuns(t, "-scenario", specPath)["scenario"]
		if want, got := maskWallClock(string(run.Result)), maskWallClock(string(again.Result)); got != want {
			t.Fatalf("%s does not reproduce from its spec:\nexported %s\nre-run   %s", run.Label, want, got)
		}
	}
}

// TestOutCarriesNoTelemetry: the telemetry export goes to -telemetry
// alone, not into the -out results as well.
func TestOutCarriesNoTelemetry(t *testing.T) {
	dir := t.TempDir()
	results, tel := filepath.Join(dir, "r.json"), filepath.Join(dir, "t.json")
	if out, err := gridexp("-scenario", smokeSpec, "-telemetry", tel, "-out", results); err != nil {
		t.Fatalf("gridexp: %v\n%s", err, out)
	}
	for path, want := range map[string]bool{results: false, tel: true} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(data, []byte(`"series"`)); got != want {
			t.Fatalf("%s: contains \"series\" = %v, want %v", filepath.Base(path), got, want)
		}
	}
}

// rejected runs gridexp on args and checks that it fails, says why and
// leaves no file at path.
func rejected(t *testing.T, path, why string, args ...string) {
	t.Helper()
	out, err := gridexp(args...)
	if err == nil {
		t.Fatalf("gridexp %v accepted:\n%s", args, out)
	}
	if !strings.Contains(out, why) {
		t.Fatalf("gridexp %v rejected without saying why:\n%s", args, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s created: %v", path, err)
	}
}

// TestFindSaturationRejectsTelemetry: the saturation search runs probes,
// not study runs, so -telemetry would write an empty export.
func TestFindSaturationRejectsTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	rejected(t, path, "-telemetry exports study runs", "-scenario", smokeSpec, "-find-saturation", "-telemetry", path)
}

// TestUnreadFlagsRejected: a flag the selected mode does not read fails
// the run instead of being dropped — experiment flags in scenario mode,
// scenario flags in experiment mode, and -sample-period without the
// -telemetry series it sets.
func TestUnreadFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		why  string
		args []string
	}{
		{"-seed is an experiment flag", []string{"-scenario", smokeSpec, "-seed", "5"}},
		{"-requests is an experiment flag", []string{"-scenario", smokeSpec, "-requests", "10"}},
		{"-table1 is an experiment flag", []string{"-scenario", smokeSpec, "-table1"}},
		{"-exp4 is an experiment flag", []string{"-scenario", smokeSpec, "-exp4"}},
		{"-table3 is an experiment flag", []string{"-scenario", smokeSpec, "-sweep", "rate=1,2", "-table3"}},
		{"need a -scenario spec", []string{"-table2", "-sweep", "rate=1,2"}},
		{"need a -scenario spec", []string{"-table2", "-find-saturation"}},
		{"-sample-period sets the period of the -telemetry series", []string{"-scenario", smokeSpec, "-sample-period", "5"}},
		{"-sample-period sets the period of the -telemetry series", []string{"-table2", "-sample-period", "5"}},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		rejected(t, path, c.why, append(c.args, "-out", path)...)
	}
}

// TestWorkersFlagRemoved: the GA evaluates its population on the run's
// own goroutine, so there is no -workers width to set, in either mode.
func TestWorkersFlagRemoved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rejected(t, path, "flag provided but not defined: -workers", "-table1", "-workers", "1", "-out", path)
	rejected(t, path, "flag provided but not defined: -workers", "-scenario", smokeSpec, "-workers", "1", "-out", path)
}

// TestSweepRejectsFindSaturation: a sweep and a saturation search are two
// studies; asking for both runs neither.
func TestSweepRejectsFindSaturation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rejected(t, path, "pick one", "-scenario", smokeSpec, "-sweep", "rate=1,2", "-find-saturation", "-out", path)
}
