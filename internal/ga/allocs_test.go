//go:build !race

package ga

import (
	"testing"

	"repro/internal/sim"
)

// TestRunnerAllocs: once its arenas have grown, a Runner evolves a
// population without allocating. (Not under -race, whose runtime
// allocates on its own.)
func TestRunnerAllocs(t *testing.T) {
	var r Runner[[]bool]
	p := oneMax{bits: 48}
	cfg := DefaultConfig()
	rng := sim.NewRNG(3)
	r.Run(p, cfg, rng, nil)
	allocs := testing.AllocsPerRun(20, func() { r.Run(p, cfg, rng, nil) })
	if allocs != 0 {
		t.Fatalf("Runner.Run allocates %v objects per run in steady state, want 0", allocs)
	}
}
