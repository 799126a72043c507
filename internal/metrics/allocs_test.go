//go:build !race

package metrics

import (
	"testing"

	"repro/internal/sim"
)

// This guard is not built under -race: its runtime allocates on its own.

// TestComputeAllocs: Compute allocates per resource, never per record —
// 100 records and 10 000 on one topology cost the same allocations.
func TestComputeAllocs(t *testing.T) {
	nodes := map[string]int{"S1": 16, "S2": 8, "S3": 32, "S4": 4}
	names := []string{"S1", "S2", "S3"} // S4 idle
	w := Window{Start: 0, End: 1000}
	allocs := func(n int) float64 {
		recs := randomRecords(sim.NewRNG(7), n, names, nodes)
		return testing.AllocsPerRun(20, func() {
			if _, err := Compute(recs, nodes, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	t.Logf("%v allocations for 100 records, %v for 10 000", small, large)
	if small != large {
		t.Fatalf("Compute allocates %v objects for 100 records but %v for 10 000: it allocates per record", small, large)
	}
}
