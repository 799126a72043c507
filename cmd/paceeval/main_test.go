package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for paceeval: re-executed with
// PACEEVAL_TEST_MAIN=1 it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PACEEVAL_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// paceeval runs the CLI on args and returns its combined output and exit
// error.
func paceeval(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PACEEVAL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// Table 1's sweep3d row on the reference platform, 1..16 processors.
var sweep3dRow = []float64{50, 40, 30, 25, 23, 20, 17, 15, 13, 11, 9, 7, 6, 5, 4, 4}

func TestSweep3dPrintsTable1Row(t *testing.T) {
	out, err := paceeval("-app", "sweep3d")
	if err != nil {
		t.Fatalf("paceeval: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2+len(sweep3dRow) || lines[0] != "sweep3d on SGIOrigin2000:" {
		t.Fatalf("unexpected output:\n%s", out)
	}
	for k, want := range sweep3dRow {
		if prefix := fmt.Sprintf("%6d %12.4f", k+1, want); !strings.HasPrefix(lines[2+k], prefix) {
			t.Errorf("line %q, want prefix %q", lines[2+k], prefix)
		}
	}
}

func TestOnePrediction(t *testing.T) {
	out, err := paceeval("-app", "improc", "-hw", "SunUltra5", "-n", "8")
	if err != nil || out != "improc on 8 x SunUltra5: 40.0000 s\n" {
		t.Fatalf("paceeval: %v\n%q", err, out)
	}
}

// The layered form's flag and grammar are gone: both fail, neither is
// silently ignored.
func TestLayeredFormRejected(t *testing.T) {
	for _, name := range []string{"phw"} {
		out, err := paceeval("-"+name, "x", "-app", "sweep3d")
		if err == nil || !strings.Contains(out, "flag provided but not defined: -"+name) {
			t.Fatalf("-%s: %v\n%s", name, err, out)
		}
	}

	path := filepath.Join(t.TempDir(), "layered.psl")
	src := "application a { param n; time = n; }\nhardware box { flops = 1e9; }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := paceeval("-file", path, "-app", "a")
	if err == nil || !regexp.MustCompile(`^paceeval: psl:2:1: expected "application", found "hardware"\n$`).MatchString(out) {
		t.Fatalf("-file declaring hardware: %v\n%q", err, out)
	}
}
