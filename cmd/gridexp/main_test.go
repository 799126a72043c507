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
	out, err := gridexp("-scale", "-audit", "-workers", "1")
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
	args := []string{"-exp4", "-exp5", "-accuracy", "-scale", "-requests", "60", "-workers", "1"}
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
// audit verdicts and -out document to the goldens in testdata.
func TestExtensionStudiesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies in short mode")
	}
	path := filepath.Join(t.TempDir(), "results.json")
	out, err := gridexp("-exp4", "-exp5", "-exp6", "-exp7", "-accuracy", "-scale",
		"-requests", "60", "-workers", "1", "-audit", "-out", path)
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
	if !bytes.Equal(got, want) {
		t.Fatalf("-out differs from testdata/extensions.json:\n%s", got)
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
		args := append(mode.args, "-workers", "1")
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

// maskWallClock zeroes the host seconds, the one field of a sweep export
// that differs between identical runs: the JSON field, and the CSV
// column before audit_ok.
func maskWallClock(export string) string {
	export = regexp.MustCompile(`("wall_clock_s": )[0-9.eE+-]+`).ReplaceAllString(export, "${1}0")
	return regexp.MustCompile(`(?m)[0-9.eE+-]+(,(?:true|false))$`).ReplaceAllString(export, "0$1")
}

// TestSweepExportsMatchGolden pins a two-point rate sweep's -out
// document, as JSON and as CSV, to the goldens in testdata (wall-clock
// seconds zeroed).
func TestSweepExportsMatchGolden(t *testing.T) {
	for _, name := range []string{"sweep.json", "sweep.csv"} {
		path := filepath.Join(t.TempDir(), name)
		out, err := gridexp("-scenario", smokeSpec, "-sweep", "rate=1,2", "-workers", "1", "-out", path)
		if err != nil {
			t.Fatalf("gridexp: %v\n%s", err, out)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if masked := maskWallClock(string(got)); masked != string(want) {
			t.Fatalf("-out differs from testdata/%s:\n%s", name, masked)
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

// TestScenarioRejectsCSV: -csv exports experiments 1–3, which scenario
// mode does not run.
func TestScenarioRejectsCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	rejected(t, dir, "-csv exports experiments 1-3", "-scenario", smokeSpec, "-csv", dir)
}

// TestSweepRejectsFindSaturation: a sweep and a saturation search are two
// studies; asking for both runs neither.
func TestSweepRejectsFindSaturation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rejected(t, path, "pick one", "-scenario", smokeSpec, "-sweep", "rate=1,2", "-find-saturation", "-out", path)
}
