package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/transport"
	workloadgen "repro/internal/workload"
	"repro/internal/xmlmsg"
)

const (
	// farmRequests is one unit: a batch against a freshly started farm.
	farmRequests = 3000

	// farmClients is the closed loop's width: each client sends its next
	// request only when the previous one is acknowledged, as the farm's
	// real callers (gridsubmit batches, forwarding agents) do. Two is
	// the core count of the reference box; the load generator shares the
	// process with the twelve nodes it drives.
	farmClients = 2

	// farmPullPeriod replaces the 10 s advertisement pull of §4.1, the
	// only non-default setting of the farm. A node's first pull races the
	// wiring of its neighbours and usually finds none, so a farm can
	// forward only after the second pull, one period after start: at 10 s
	// every unit would wait 10 s in set-up and, lasting about 3 s, never
	// see a refresh. At 0.5 s set-up waits half a second and a unit sees
	// the handful of refreshes the 12 000-request sizing run saw, for
	// about 2% extra exchanges.
	farmPullPeriod = 0.5

	farmEmail = "bench@grid"
)

// farmUnit is one batch of requests against a freshly started farm.
type farmUnit struct {
	setup     float64 // seconds from StartFarm to a warm, loaded farm
	startFarm float64
	firstPull float64
	use       usage // the closed loop alone
	requests  int
	acks      int
	failed    int
	hops      int
	latMS     []float64 // per-call wall around Client.Call, ascending
	problems  []string
	snap      *telemetry.Snapshot // the farm's registry, traced units only
}

// runFarmUnit starts the Fig. 7 farm, sends count generated requests
// through it and checks that every one was acknowledged and is held by
// exactly one node. mutate, when set, edits the generated batch before
// it is sent (tests break an input with it).
func runFarmUnit(seed uint64, count int, traced bool, tr *tracer, parent int, mutate func([]workloadgen.Request)) farmUnit {
	u := farmUnit{requests: count}
	fatal := func(format string, args ...interface{}) farmUnit {
		u.failed = count
		u.problems = append(u.problems, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
		return u
	}

	setupStart := time.Now()
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	specs := scenario.Fig7Resources()
	id := tr.begin("transport.StartFarm", parent, 0)
	farm, err := transport.StartFarm(transport.FarmConfig{
		Specs: specs, Policy: "fifo", Seed: seed, PullPeriod: farmPullPeriod, Telemetry: reg,
	})
	tr.end(id)
	if err != nil {
		return fatal("StartFarm: %v", err)
	}
	defer farm.Close()
	u.startFarm = time.Since(setupStart).Seconds()

	// A node is warm once it has pulled twice and holds an advertisement
	// from every neighbour; until then it cannot forward, only escalate.
	// Waiting for the second pull even when the first one won its race
	// keeps set-up the same length on every start.
	neighbours := map[string]int{}
	for _, s := range specs {
		if s.Parent != "" {
			neighbours[s.Name]++
			neighbours[s.Parent]++
		}
	}
	id = tr.begin("farm.first-pull", parent, 0)
	pullStart := time.Now()
	for warm := false; !warm; {
		warm = true
		for _, name := range farm.Names() {
			n, _ := farm.Node(name)
			if n.Stats().Pulls < 2 || len(n.CachedServiceNames()) < neighbours[name] {
				warm = false
				break
			}
		}
		if !warm {
			if time.Since(pullStart) > 15*time.Second {
				tr.end(id)
				return fatal("advertisements never reached every node")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	tr.end(id)
	u.firstPull = time.Since(pullStart).Seconds()

	client := transport.NewPooledClient(transport.PoolConfig{Size: farmClients})
	defer client.Pool.Close()

	id = tr.begin("workload.Generate", parent, 0)
	reqs, err := workloadgen.Generate(workloadgen.Spec{
		Seed: seed, Count: count, Interval: 1,
		AgentNames: farm.Names(), Library: pace.CaseStudyLibrary(),
	})
	tr.end(id)
	if err != nil {
		return fatal("workload.Generate: %v", err)
	}
	if mutate != nil {
		mutate(reqs)
	}
	u.setup = time.Since(setupStart).Seconds()

	type outcome struct {
		latMS float64
		hops  int
		err   error
	}
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	call := func(i int) outcome {
		r := reqs[i]
		node, ok := farm.Node(r.AgentName)
		if !ok {
			return outcome{err: fmt.Errorf("request %d: no node %q", i, r.AgentName)}
		}
		reqID := uint64(i + 1)
		// The arrival time of a closed loop is whenever the client is
		// free, so the Table 1 deadline is added to the entry node's
		// clock at that instant.
		wire := xmlmsg.NewWireRequest(reqID, r.AppName, "test", node.Now()+r.DeadlineRel, farmEmail, xmlmsg.ModeDiscover, nil)
		span := tr.begin("transport.Client.Call", parent, reqID)
		start := time.Now()
		reply, _, err := client.Call(node.Addr(), wire)
		o := outcome{latMS: float64(time.Since(start).Nanoseconds()) / 1e6}
		tr.end(span)
		switch ack, isAck := reply.(*xmlmsg.DispatchAck); {
		case err != nil:
			o.err = fmt.Errorf("request %d (%s at %s): %w", i, r.AppName, r.AgentName, err)
		case !isAck:
			o.err = fmt.Errorf("request %d: reply is %T, want a dispatch ack", i, reply)
		case ack.ReqID != reqID:
			o.err = fmt.Errorf("request %d: ack echoes request %d", i, ack.ReqID)
		default:
			o.hops = ack.Hops
		}
		return o
	}
	u.use = measure(func() {
		var wg sync.WaitGroup
		for c := 0; c < farmClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					out[i] = call(i)
				}
			}()
		}
		wg.Wait()
	})

	for _, o := range out {
		if o.err != nil {
			u.failed++
			if len(u.problems) < 5 {
				u.problems = append(u.problems, fmt.Sprintf("seed %d: %v", seed, o.err))
			}
			continue
		}
		u.acks++
		u.hops += o.hops
		u.latMS = append(u.latMS, o.latMS)
	}
	sort.Float64s(u.latMS)

	// Conservation: the tasks the twelve nodes hold between them are
	// exactly the requests acknowledged, none lost and none run twice.
	held := 0
	for _, name := range farm.Names() {
		addr, _ := farm.Addr(name)
		reply, _, err := client.Call(addr, xmlmsg.NewResultsQuery(farmEmail))
		rs, ok := reply.(*xmlmsg.ResultSet)
		if err != nil || !ok {
			return fatal("results query at %s: reply %T, error %v", name, reply, err)
		}
		held += len(rs.Tasks)
	}
	if held != u.acks {
		lost := held - u.acks
		if lost < 0 {
			lost = -lost
		}
		u.failed += lost
		u.problems = append(u.problems, fmt.Sprintf("seed %d: nodes hold %d tasks for %d acknowledged requests", seed, held, u.acks))
	}
	if reg != nil {
		snap := reg.Snapshot()
		u.snap = &snap
	}
	return u
}

func (u farmUnit) outcome() (usage, int, []string) { return u.use, u.failed, u.problems }

func (u farmUnit) endToEnd(m metricSet) {
	m.add("setup_s", u.setup)
	if u.use.Wall == 0 {
		return
	}
	req := float64(u.requests)
	ok := u.requests - u.failed
	if ok < 0 {
		ok = 0
	}
	m.add("req_per_s", float64(ok)/u.use.Wall)
	m.add("cpu_ms_per_req", u.use.CPU*1e3/req)
	m.add("alloc_kb_per_req", float64(u.use.Bytes)/1024/req)
	m.add("mallocs_per_req", float64(u.use.Mallocs)/req)
	if len(u.latMS) > 0 {
		m.add("ack_p50_ms", quantile(u.latMS, 0.50))
		m.add("ack_p99_ms", quantile(u.latMS, 0.99))
	}
}

func (u farmUnit) layers(m metricSet) {
	if u.acks > 0 {
		m.add("agent.hops_mean", float64(u.hops)/float64(u.acks))
	}
	m.add("setup.start_farm_ms", u.startFarm*1e3)
	m.add("setup.first_pull_ms", u.firstPull*1e3)
	u.use.runtimeLayers(m)
}

func (u farmUnit) tracedLayers(m metricSet) {
	if u.snap == nil {
		return
	}
	telemetryLayers(m, *u.snap, u.requests, u.use.Wall)
	// The farm has no sampler: queue depth is what each node's gauge
	// reads when the batch ends, which in a saturated farm is its peak.
	mean, max := queueDepths([]map[string]float64{u.snap.Gauges})
	m.add("scheduler.queue_depth_mean", mean)
	m.add("scheduler.queue_depth_max", max)
}
