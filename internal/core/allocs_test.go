//go:build !race

package core

import "testing"

// This guard is not built under -race: its runtime allocates on its own.

// TestGridRecordsAllocs: after a run, Grid.Records is one allocation —
// the result, sized once; every scheduler appends into it in place.
func TestGridRecordsAllocs(t *testing.T) {
	g := smallGrid(t, Options{UseAgents: true, Seed: 3})
	submitMixed(t, g)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if len(g.Records()) == 0 {
			t.Fatal("no records")
		}
	})
	if allocs != 1 {
		t.Fatalf("Grid.Records allocates %v objects per call, want 1", allocs)
	}
}
