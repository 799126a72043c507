package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	workloadgen "repro/internal/workload"
)

// reservationPickSalt is scenario.Run's: the salt of the RNG stream that
// picks which requests become reservations.
const reservationPickSalt = 0x9e3779b97f4a7c15

// simSetup does what scenario.Run does before its event loop starts —
// validate the spec, build the topology, construct the grid, generate
// the request stream and schedule its arrivals — and returns the loaded
// grid and how long that took. scenario.Run offers no seam between set-up
// and run, so the harness repeats the same calls on their own and
// discards the grid; TestSetupIsWhatRunDoes holds the copy to the
// original by running the grid and comparing it with scenario.Run's
// result.
func simSetup(spec scenario.Spec, seed uint64, tr *tracer, parent int) (*core.Grid, float64, error) {
	runtime.GC()
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}

	id := tr.begin("scenario.TopologySpec.Build", parent, 0)
	resources, err := spec.Topology.Build()
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, len(resources))
	nodes := make(map[string]int, len(resources))
	for i, r := range resources {
		names[i] = r.Name
		nodes[r.Name] = r.Nodes
	}
	if spec.Churn != nil {
		for _, j := range spec.Churn.Joins {
			nodes[j.Name] = j.Nodes
		}
	}
	policy, err := core.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, 0, err
	}

	id = tr.begin("core.New", parent, 0)
	grid, err := core.New(resources, core.Options{
		Policy:      policy,
		GA:          spec.GAConfig(),
		UseAgents:   spec.AgentsEnabled(),
		Seed:        seed,
		Audit:       audit.NewObserver(nodes),
		FaultPlan:   spec.FaultPlan(),
		Migration:   spec.MigrationPolicy(),
		Reservation: spec.ReservationPolicy(),
		Churn:       spec.ChurnPlan(),
		Rebalance:   spec.RebalancePolicy(),
	})
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}

	id = tr.begin("workload.Generate", parent, 0)
	proc, err := spec.Arrivals.BuildProcess()
	var reqs []workloadgen.Request
	if err == nil {
		reqs, err = workloadgen.Generate(workloadgen.Spec{
			Seed:          seed,
			Count:         spec.Arrivals.Count,
			AgentNames:    names,
			Library:       grid.Library(),
			Arrivals:      proc,
			AppWeights:    spec.AppWeights,
			DeadlineScale: spec.DeadlineScale,
		})
	}
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}

	id = tr.begin("core.Grid.Submit", parent, 0)
	if rs := spec.Reservations; rs != nil && rs.Share > 0 {
		// The workloads state every field of the reservation shape, so the
		// defaults scenario.Run would fill in never apply.
		pick := sim.NewRNG(seed ^ reservationPickSalt)
		for _, r := range reqs {
			if pick.Bool(rs.Share) {
				err = grid.SubmitReservationAt(r.At, r.AgentName, r.AppName, rs.Lead, rs.Duration, rs.Nodes, rs.Parts)
			} else {
				err = grid.SubmitAt(r.At, r.AgentName, r.AppName, r.DeadlineRel)
			}
			if err != nil {
				break
			}
		}
	} else {
		err = grid.SubmitWorkload(reqs)
	}
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	return grid, time.Since(start).Seconds(), nil
}

// simUnit is one scenario.Run of the workload under one seed.
type simUnit struct {
	use      usage
	res      scenario.Result
	failed   int
	problems []string
}

// runSimUnit runs the scenario and checks its outputs. Nothing the run
// can do wrong stops the harness: an error or an audit violation fails
// every request of the unit and is reported as a problem.
func runSimUnit(spec scenario.Spec, seed uint64, opt scenario.RunOptions, pins []fingerprint, tr *tracer, parent int) simUnit {
	spec.Seed = seed
	var u simUnit
	var err error
	id := tr.begin("scenario.Run", parent, 0)
	u.use = measure(func() { u.res, err = scenario.Run(spec, opt) })
	tr.end(id)

	count := spec.Arrivals.Count
	fail := func(n int, format string, args ...interface{}) {
		if n > u.failed {
			u.failed = n
		}
		u.problems = append(u.problems, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
	}
	switch {
	case err != nil:
		fail(count, "scenario.Run: %v", err)
		return u
	case !u.res.AuditOK:
		fail(count, "audit: %s", u.res.AuditSummary)
	case u.res.Requests != count:
		fail(count, "%d requests submitted, want %d", u.res.Requests, count)
	case u.res.Completed != u.res.Requests:
		lost := u.res.Requests - u.res.Completed
		if lost < 0 {
			lost = -lost
		}
		fail(lost, "%d of %d requests completed", u.res.Completed, u.res.Requests)
	}
	for _, p := range pins {
		if p.Seed != seed || p.Count != count {
			continue
		}
		r := u.res
		// Telemetry adds sampler events to the simulator, so the event
		// count is pinned for untraced units only.
		if !sameFloat(r.Epsilon, p.Epsilon) || !sameFloat(r.Upsilon, p.Upsilon) || !sameFloat(r.Beta, p.Beta) ||
			(!opt.Telemetry && r.SimEvents != p.SimEvents) {
			fail(0, "simulated outcome moved: eps %v ups %v beta %v events %d, pinned %v %v %v %d",
				r.Epsilon, r.Upsilon, r.Beta, r.SimEvents, p.Epsilon, p.Upsilon, p.Beta, p.SimEvents)
		}
	}
	return u
}

// sameFloat compares a simulated statistic with its pin to one part in
// 10⁹: a changed scheduling decision moves ε, υ or β by far more, while
// the last bits may differ between CPUs that fuse multiply-adds and CPUs
// that do not.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func (u simUnit) outcome() (usage, int, []string) { return u.use, u.failed, u.problems }

// endToEnd adds the unit's end-to-end samples.
func (u simUnit) endToEnd(m metricSet) {
	req := float64(u.res.Requests)
	if req == 0 {
		return
	}
	m.add("req_per_s", float64(u.res.Completed-u.failed)/u.use.Wall)
	m.add("cpu_ms_per_req", u.use.CPU*1e3/req)
	m.add("alloc_kb_per_req", float64(u.use.Bytes)/1024/req)
	m.add("mallocs_per_req", float64(u.use.Mallocs)/req)
}

// layers adds what an untraced unit says about single layers: counts the
// result carries anyway, and the runtime's share of the cost.
func (u simUnit) layers(m metricSet) {
	r := u.res
	if r.Requests == 0 {
		return
	}
	m.add("core.sim_events", float64(r.SimEvents))
	m.add("core.events_per_s", float64(r.SimEvents)/u.use.Wall)
	m.add("agent.hops_mean", r.MeanHops)
	if r.Audit != nil {
		c := r.Audit.Counts
		events := c.Arrives + c.Dispatches + c.Redispatches + c.Completes + c.Fails + c.Records +
			c.MigrateOffers + c.MigrateWithdraws + c.MigrateRedispatches +
			c.ReserveHolds + c.ReserveConfirms + c.ReserveReleases + c.ReserveExpires
		m.add("audit.events_per_req", float64(events)/float64(r.Requests))
	}
	u.use.runtimeLayers(m)
}

// runtimeLayers adds the collector's share of a timed section.
func (u usage) runtimeLayers(m metricSet) {
	m.add("runtime.gc_cpu_frac", ratio(u.GCCPU, u.CPU))
	m.add("runtime.num_gc", float64(u.NumGC))
}

// tracedLayers adds the per-layer numbers of a unit run with the
// program's telemetry switched on.
func (u simUnit) tracedLayers(m metricSet) {
	tel := u.res.Telemetry
	if tel == nil {
		return
	}
	telemetryLayers(m, tel.Snapshot, u.res.Requests, u.use.Wall)
	if tel.Series != nil {
		points := make([]map[string]float64, len(tel.Series.Points))
		for i, p := range tel.Series.Points {
			points[i] = p.V
		}
		mean, max := queueDepths(points)
		m.add("scheduler.queue_depth_mean", mean)
		m.add("scheduler.queue_depth_max", max)
	}
}

// simStatisticNames are the end-to-end metrics the seed alone decides.
var simStatisticNames = []string{"eps_s", "ups_pct", "beta_pct", "hit_frac"}

// simStatistics records the §3.3 statistics of the run's first unit, the
// one whose seed is -seed itself: they depend on the seed alone, so they
// repeat exactly however many units the time box admits.
func simStatistics(m metricSet, r scenario.Result) {
	m.add("eps_s", r.Epsilon)
	m.add("ups_pct", r.Upsilon)
	m.add("beta_pct", r.Beta)
	m.add("hit_frac", r.HitRate)
}
