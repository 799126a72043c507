package core

import (
	"testing"

	"repro/internal/membership"
)

// churnOpts is the base configuration for the dynamic-membership tests:
// agents + GA over the three-resource smallGrid, with a joiner arriving
// mid-workload and the slow resource leaving before the end.
func churnOpts(seed uint64) Options {
	return Options{
		Policy: PolicyGA, UseAgents: true, Seed: seed,
		Churn: &membership.Plan{
			Joins:  []membership.Join{{Time: 20, Name: "late", Hardware: "SGIOrigin2000", Nodes: 8, Parent: "mid"}},
			Leaves: []membership.Leave{{Time: 40, Name: "slow"}},
		},
		Rebalance: &membership.Policy{MinLoad: 1, Window: 1, Cooldown: 10, CheckPeriod: 7},
	}
}

// TestMembershipOffByteIdentical proves the subsystem is inert when its
// machinery is wired but has nothing to do: a grid whose churn plan only
// fires after the workload has drained, and whose rebalancer floor is
// unreachable, produces the exact dispatch and record stream of a grid
// built without membership at all. (Joiner agents are built at
// construction, so their RNG splits must come after every base split to
// keep the base schedulers' streams untouched — this is the test that
// catches an ordering regression.)
func TestMembershipOffByteIdentical(t *testing.T) {
	base := Options{Policy: PolicyGA, UseAgents: true, Seed: 42}
	plain := smallGrid(t, base)
	submitMixed(t, plain)
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}

	inert := base
	inert.Churn = &membership.Plan{
		Joins: []membership.Join{{Time: 1e6, Name: "late", Hardware: "SGIOrigin2000", Nodes: 8, Parent: "mid"}},
	}
	inert.Rebalance = &membership.Policy{MinLoad: 1 << 30}
	wired := smallGrid(t, inert)
	submitMixed(t, wired)
	if err := wired.Run(); err != nil {
		t.Fatal(err)
	}

	if got, want := runFingerprint(wired), runFingerprint(plain); got != want {
		t.Fatalf("inert membership perturbed the run:\n--- plain ---\n%s--- wired ---\n%s", want, got)
	}
}

// TestChurnDeterministicAcrossWorkers runs the full churn configuration
// twice and demands identical streams: the churn path draws no hidden
// state.
func TestChurnDeterministicAcrossWorkers(t *testing.T) {
	run := func() string {
		g := smallGrid(t, churnOpts(7))
		submitMixed(t, g)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return runFingerprint(g)
	}
	if want, got := run(), run(); got != want {
		t.Fatalf("repeated churn run diverged:\n--- first ---\n%s--- second ---\n%s", want, got)
	}
}

// TestLeaveReroutesLateTraffic is the graceful-deregistration guarantee:
// after slow leaves at t=40, a request still addressed to it is rerouted
// through its former parent, completes elsewhere, and nothing new ever
// starts on the leaver.
func TestLeaveReroutesLateTraffic(t *testing.T) {
	opts := Options{
		Policy: PolicyGA, UseAgents: true, Seed: 11,
		Churn: &membership.Plan{Leaves: []membership.Leave{{Time: 40, Name: "slow"}}},
	}
	g := smallGrid(t, opts)
	// Early work lands everywhere; the late batch is addressed to the
	// departed agent by name.
	for i := 0; i < 10; i++ {
		if err := g.SubmitAt(float64(i)*2, "slow", "fft", 30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := g.SubmitAt(60+float64(i)*2, "slow", "fft", 30); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Records()); got != 15 {
		t.Fatalf("%d records, want 15 — traffic to the leaver was lost", got)
	}
	mbs := g.MembershipStats()
	if mbs.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", mbs.Leaves)
	}
	// The leaver may finish work it started before t=40, but no task may
	// start on it afterwards: its adverts expired at the leave instant.
	for _, r := range g.Records() {
		if r.Resource == "slow" && r.Start > 40 {
			t.Fatalf("task started on slow at %.1f, after its leave at 40", r.Start)
		}
	}
	// The late batch completed on the survivors.
	late := 0
	for _, d := range g.Dispatches() {
		if d.Resource != "slow" {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no dispatch landed on a surviving resource")
	}
}

// TestJoinerAbsorbsWork: an agent joining mid-run must become a real
// dispatch target through the ordinary advert exchange. The workload is
// arranged so the joiner is the only resource that can win: fft takes
// 18s on SGIOrigin2000 and 108s on the entry point's SunSPARCstation2,
// so a 25s relative deadline rules out the entry point locally, and the
// head (the other SGI machine) is preloaded with enough sweep3d work
// that its advertised freetime pushes its η past the deadline too.
func TestJoinerAbsorbsWork(t *testing.T) {
	opts := Options{
		Policy: PolicyGA, UseAgents: true, Seed: 3,
		Churn: &membership.Plan{
			Joins: []membership.Join{{Time: 20, Name: "late", Hardware: "SGIOrigin2000", Nodes: 8, Parent: "slow"}},
		},
	}
	g := smallGrid(t, opts)
	for i := 0; i < 30; i++ {
		if err := g.SubmitAt(0.5*float64(i), "fast", "sweep3d", 500); err != nil {
			t.Fatal(err)
		}
	}
	// Probes arrive after the t=30 pull has spread the joiner's advert.
	for i := 0; i < 10; i++ {
		if err := g.SubmitAt(31+float64(i), "slow", "fft", 25); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	onJoiner := 0
	for _, d := range g.Dispatches() {
		if d.Resource == "late" {
			onJoiner++
			if d.Hops == 0 {
				t.Fatal("dispatch on the joiner skipped discovery")
			}
		}
	}
	if onJoiner == 0 {
		t.Fatal("the runtime joiner never received a dispatch")
	}
	if g.MembershipStats().Joins != 1 {
		t.Fatalf("joins = %d, want 1", g.MembershipStats().Joins)
	}
}
