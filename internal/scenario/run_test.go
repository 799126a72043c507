package scenario

import (
	"reflect"
	"testing"
)

// smallSpec is a cheap generated-topology scenario used across the run
// tests: nine agents, Poisson arrivals, a reduced GA.
func smallSpec() Spec {
	return Spec{
		Name: "small",
		Seed: 42,
		Topology: TopologySpec{
			Agents:    9,
			Branching: 3,
			Nodes:     8,
		},
		Arrivals: ArrivalSpec{Process: "poisson", Count: 120, Rate: 1.5},
		Policy:   "ga",
		GA:       &GASpec{PopulationSize: 20, MaxGenerations: 10, ConvergenceWindow: 4},
	}
}

func TestRunSmallScenario(t *testing.T) {
	res, err := Run(smallSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents != 9 || res.Requests != 120 {
		t.Fatalf("shape: agents %d requests %d", res.Agents, res.Requests)
	}
	if res.Completed != 120 {
		t.Fatalf("completed %d of 120", res.Completed)
	}
	if !res.AuditOK {
		t.Fatalf("audit failed:\n%s", res.AuditSummary)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v, want positive", res.Throughput)
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("hit rate %v outside [0,1]", res.HitRate)
	}
	if res.Span <= 0 {
		t.Fatalf("span %v, want positive", res.Span)
	}
	if res.SlackP99 > res.SlackP50 {
		t.Fatalf("slack tail p99 %v above the median %v", res.SlackP99, res.SlackP50)
	}
}

// stripHost removes the fields that legitimately vary between identical
// runs (host wall-clock time).
func stripHost(r Result) Result {
	r.WallClock = 0
	r.Audit = nil
	return r
}

// runTwice runs spec twice and fails unless both runs give the same
// result, the executed-event count included; it returns the first.
func runTwice(t *testing.T, spec Spec) Result {
	t.Helper()
	var res [2]Result
	for i := range res {
		r, err := Run(spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = stripHost(r)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("%s: results differ between two runs:\nfirst:  %+v\nsecond: %+v", spec.Name, res[0], res[1])
	}
	return res[0]
}

func TestRunWorkerDeterminism(t *testing.T) {
	runTwice(t, smallSpec())
}

func TestFindSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search runs many probes")
	}
	spec := smallSpec()
	spec.Arrivals.Count = 150
	res, err := FindSaturation(spec, RunOptions{}, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Lo < res.Hi) || res.Capacity < res.Lo || res.Capacity > res.Hi {
		t.Fatalf("bracket [%v, %v] capacity %v malformed", res.Lo, res.Hi, res.Capacity)
	}
	if res.Hi-res.Lo > 0.10*res.Lo+1e-9 {
		t.Fatalf("bracket [%v, %v] wider than tolerance", res.Lo, res.Hi)
	}
	// The probes must straddle the crossing.
	var sawUnder, sawOver bool
	for _, p := range res.Probes {
		if p.Epsilon > 0 {
			sawUnder = true
		} else {
			sawOver = true
		}
	}
	if !sawUnder || !sawOver {
		t.Fatalf("probes never straddled ε=0: %+v", res.Probes)
	}
}

func TestFindSaturationSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search runs many probes")
	}
	base := smallSpec()
	base.Arrivals.Count = 150
	caps := make([]float64, 2)
	for i, seed := range []uint64{101, 202} {
		spec := base
		spec.Seed = seed
		res, err := FindSaturation(spec, RunOptions{}, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = res.Capacity
	}
	lo, hi := caps[0], caps[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	// Capacity is a property of the grid, not of the seed: different
	// workload draws shift it a little, not a lot.
	if hi > 1.5*lo {
		t.Fatalf("capacity unstable across seeds: %v vs %v", caps[0], caps[1])
	}
}

// TestStudyFieldsReachTheRun: each study field changes the run it
// describes. Without discovery a request runs where it enters, so
// entry_agents bounds where work executes; advert_ttl changes where
// discovery dispatches; prediction noise changes when tasks finish.
func TestStudyFieldsReachTheRun(t *testing.T) {
	run := func(s Spec) Result {
		t.Helper()
		res, err := Run(s, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AuditOK {
			t.Fatalf("audit failed:\n%s", res.AuditSummary)
		}
		return res
	}
	base := Fig7()
	base.Arrivals.Count = 120
	base.GA = &GASpec{PopulationSize: 20, MaxGenerations: 10, ConvergenceWindow: 4}

	local := base
	off := false
	local.UseAgents = &off
	local.EntryAgents = []string{"S3", "S7"}
	for _, r := range run(local).Records {
		if r.Resource != "S3" && r.Resource != "S7" {
			t.Fatalf("task %d ran on %s, outside the entry agents", r.TaskID, r.Resource)
		}
	}

	// A TTL below the 10 s pull period expires every advert between
	// pulls for part of each period.
	stale := base
	stale.AdvertTTL = 5
	if reflect.DeepEqual(run(base).Dispatches, run(stale).Dispatches) {
		t.Fatal("advert_ttl left every dispatch unchanged")
	}

	scatter, bias := base, base
	scatter.PredictionError = 0.3
	bias.PredictionBias = 0.2
	exact := run(base).Records
	for _, noisy := range []Spec{scatter, bias} {
		if reflect.DeepEqual(exact, run(noisy).Records) {
			t.Fatalf("prediction noise (error %g, bias %g) left every execution record unchanged",
				noisy.PredictionError, noisy.PredictionBias)
		}
	}
}
