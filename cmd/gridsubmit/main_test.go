package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// TestMain lets the test binary stand in for gridsubmit: re-executed with
// GRIDSUBMIT_TEST_MAIN=1 it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("GRIDSUBMIT_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// gridsubmit runs the portal on args and returns its stdout and exit
// error; stderr goes to the test log.
func gridsubmit(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRIDSUBMIT_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return string(out), err
}

// matchLines checks that out has one line per pattern, each matching it
// in full.
func matchLines(t *testing.T, out string, patterns ...string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(patterns) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(patterns), out)
	}
	for i, p := range patterns {
		if !regexp.MustCompile("^" + p + "$").MatchString(lines[i]) {
			t.Errorf("line %d %q does not match %q", i+1, lines[i], p)
		}
	}
}

// TestQueryAndReserveAgainstFarm drives the portal's service query and
// its quote, hold and confirm exchange against a live Fig. 7 farm, and
// checks the format of every line it prints. The farm and the portal share
// one clock origin, so the confirmed window starts 30 s after the idle
// node's advertised freetime, give or take the seconds between the calls.
func TestQueryAndReserveAgainstFarm(t *testing.T) {
	farm, err := transport.StartFarm(transport.FarmConfig{Specs: scenario.Fig7Resources(), Policy: "fifo", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	addr, _ := farm.Addr("S12")

	out, err := gridsubmit(t, "-to", addr, "-query")
	if err != nil {
		t.Fatalf("-query: %v\n%s", err, out)
	}
	matchLines(t, out, regexp.QuoteMeta(addr)+`: SunSPARCstation2 x16, environments \[test\], free at virtual t=\d+s`)
	free := leadingNumber(t, out, `free at virtual t=(\d+)s`)

	out, err = gridsubmit(t, "-to", addr, "-reserve", "30,60,2")
	if err != nil {
		t.Fatalf("-reserve: %v\n%s", err, out)
	}
	lines := strings.Count(out, "\n")
	quote := `  S\d+ +mask [0-9a-f]+ +start \+\d+s`
	patterns := []string{`quotes for 2 nodes, 60s window, earliest \+30s:`}
	for i := 2; i < lines; i++ {
		patterns = append(patterns, quote)
	}
	patterns = append(patterns, `confirmed resv \d+ on S\d+: sweep3d task \d+ guaranteed \[\d+,\d+\) \(starts in \d+s\)`)
	if lines < 3 {
		t.Fatalf("no quote printed:\n%s", out)
	}
	matchLines(t, out, patterns...)
	const slack = 10
	if start := leadingNumber(t, out, `guaranteed \[(\d+),`); start < free+30-1 || start > free+30+slack {
		t.Errorf("window starts at t=%g, want within [%g, %g]: 30 s after the queried freetime %g",
			start, free+30-1, free+30+slack, free)
	}
}

// leadingNumber returns the number that pattern's one group captures in out.
func leadingNumber(t *testing.T, out, pattern string) float64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in:\n%s", pattern, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
