package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
)

// pullFingerprint reduces a finished run to what the advert pull
// decides: every agent's cached-advert set and pull counters, and —
// because each discovery decision reads the cached adverts of its
// instant — the full record and dispatch streams.
func pullFingerprint(g *Grid) string {
	var b strings.Builder
	for _, a := range g.Hierarchy().Agents() {
		cached := a.CachedServiceNames()
		sort.Strings(cached)
		st := a.Stats()
		fmt.Fprintf(&b, "%s caches %v pulls=%d failed=%d\n", a.Name(), cached, st.Pulls, st.FailedPulls)
	}
	b.WriteString(runFingerprint(g))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// TestOnePullPathMatchesBothFormerPaths pins the merged advert pull
// against the two closures it replaced (the fixed-array path of static
// grids and the rebuild-every-tick path of churning ones): the
// fingerprints and simulator event counts below were recorded from
// those closures, on a static grid, a grid under a crash/partition plan,
// and a grid with a join, a leave and a load-driven re-home.
func TestOnePullPathMatchesBothFormerPaths(t *testing.T) {
	faults := &fault.Plan{Seed: 7, Events: []fault.Event{
		{At: 10, Kind: fault.Crash, Agent: "mid"},
		{At: 30, Kind: fault.Recover, Agent: "mid"},
		{At: 20, Kind: fault.Cut, A: "fast", B: "slow"},
		{At: 40, Kind: fault.Heal, A: "fast", B: "slow"},
	}}
	cases := []struct {
		name        string
		opts        Options
		fingerprint string
		simEvents   uint64
	}{
		{"static", Options{Policy: PolicyGA, UseAgents: true, Seed: 7}, "bcbb585b11f1aa6d", 36},
		{"fault plan", Options{Policy: PolicyGA, UseAgents: true, Seed: 7, FaultPlan: faults, AdvertTTL: 30}, "d790f0119440ae69", 40},
		{"churn + rebalance", churnOpts(7), "7b4ba434a09e5770", 47},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := smallGrid(t, c.opts)
			submitMixed(t, g)
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			if got := pullFingerprint(g); got != c.fingerprint || g.SimEvents() != c.simEvents {
				t.Fatalf("fingerprint %q, %d sim events; want %q, %d", got, g.SimEvents(), c.fingerprint, c.simEvents)
			}
		})
	}
}
