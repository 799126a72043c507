package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	workloadgen "repro/internal/workload"
	"repro/internal/xmlmsg"
)

// A probe times a fixed number of calls into one package's exported
// functions, with inputs shaped like the workloads' (Table 1 applications
// and deadlines, 16-node resources, the workloads' topologies and GA
// settings). The counts below are the calls per batch at full size;
// every probe reports the median over probeBatches batches.
const probeBatches = 5

// probes runs every layer probe into m. shrink divides the call counts
// and skips the 10 000-agent probes when above 1 (tests).
func probes(m metricSet, seed uint64, shrink int) error {
	if shrink < 1 {
		shrink = 1
	}
	p := prober{m: m, rng: sim.NewRNG(seed), shrink: shrink, lib: pace.CaseStudyLibrary(), engine: pace.NewEngine()}
	for _, step := range []func() error{
		p.pace, p.schedule, p.scheduler, p.reserve, p.hierarchy, p.simulator, p.lifecycle, p.codec, p.transport,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type prober struct {
	m      metricSet
	rng    *sim.RNG
	shrink int
	lib    *pace.Library
	engine *pace.Engine
}

func (p *prober) calls(n int) int {
	if n /= p.shrink; n < 1 {
		return 1
	}
	return n
}

// op times fn and records ns per call under name.
func (p *prober) op(name string, calls int, fn func()) {
	ns, _ := timeOp(probeBatches, p.calls(calls), fn)
	p.m.add(name, ns)
}

func (p *prober) predict(app *pace.AppModel, k int) float64 {
	return p.engine.MustPredict(app, pace.SunUltra5, k)
}

// tasks draws a pending queue of depth d: Table 1 applications with
// deadlines from their requirement domains.
func (p *prober) tasks(d int) []schedule.Task {
	apps := p.lib.Models()
	out := make([]schedule.Task, d)
	for i := range out {
		a := apps[p.rng.Intn(len(apps))]
		out[i] = schedule.Task{ID: i + 1, App: a, Deadline: p.rng.UniformIn(a.DeadlineLo, a.DeadlineHi)}
	}
	return out
}

func (p *prober) pace() error {
	apps := p.lib.Models()
	i := 0
	next := func(e *pace.Engine) {
		if _, err := e.Predict(apps[i%len(apps)], pace.SGIOrigin2000, i%16+1); err != nil {
			panic(err) // the case-study models evaluate on every node count
		}
		i++
	}
	p.op("pace.predict_ns", 200000, func() { next(p.engine) })
	cold := pace.NewEngineWithoutCache()
	p.op("pace.predict_cold_ns", 2000, func() { next(cold) })
	return nil
}

func (p *prober) schedule() error {
	res := schedule.NewResource(16)
	for _, d := range []int{16, 64, 256} {
		tasks := p.tasks(d)
		sol := schedule.NewRandomSolution(d, 16, p.rng)
		seq := fmt.Sprintf("schedule.build_seq_ns_d%d", d)
		ns, allocs := timeOp(probeBatches, p.calls(40000/d), func() {
			schedule.BuildSequential(sol, tasks, res, 0, p.predict)
		})
		p.m.add(seq, ns)
		if d == 64 {
			p.m.add("schedule.build_allocs", allocs)
		}
		if d == 256 {
			continue
		}
		b, err := schedule.NewBuilder(tasks, res, p.predict)
		if err != nil {
			return fmt.Errorf("probe schedule: %w", err)
		}
		p.op(fmt.Sprintf("schedule.builder_build_ns_d%d", d), 40000/d, func() { b.Build(sol, 0) })
		prob := schedule.NewProblem(tasks, res, 0, p.predict)
		p.op(fmt.Sprintf("schedule.cost_ns_d%d", d), 40000/d, func() { prob.Cost(sol) })
	}
	return nil
}

// scheduler times Policy.Plan as an arrival sees it: the queue is
// already planned and one task is new (the policy forgets it before each
// call), which is what every submit in a workload costs at that depth.
func (p *prober) scheduler() error {
	res := schedule.NewResource(16)
	plan := func(name string, pol scheduler.Policy, d, calls int) {
		tasks := p.tasks(d)
		p.op(fmt.Sprintf("scheduler.%s_d%d", name, d), calls, func() {
			pol.Forget(tasks[d-1].ID)
			if s := pol.Plan(tasks, res, 0, p.predict); len(s.Items) != d {
				panic(fmt.Sprintf("probe scheduler: %s placed %d of %d tasks", name, len(s.Items), d))
			}
		})
	}
	for _, d := range []int{1, 16, 64, 256} {
		plan("plan_fifo_ns", scheduler.NewFastFIFOPolicy(), d, 20000/d)
	}
	// The sim-ga-108 workload's GA settings.
	cfg := ga.DefaultConfig()
	cfg.PopulationSize, cfg.MaxGenerations, cfg.ConvergenceWindow = 24, 12, 4
	for _, d := range []int{1, 16, 64} {
		plan("plan_ga_ns", scheduler.NewGAPolicy(cfg, p.rng.Split()), d, 640/d)
	}
	return nil
}

func (p *prober) reserve() error {
	for _, booked := range []int{0, 32} {
		l, err := scheduler.NewLocal(scheduler.Config{
			Name: "S1", HW: pace.SGIOrigin2000, NumNodes: 16,
			Policy: scheduler.NewFastFIFOPolicy(), Engine: p.engine,
		})
		if err != nil {
			return fmt.Errorf("probe reserve: %w", err)
		}
		for i := 0; i < booked; i++ {
			// Pairs of nodes in staggered windows, so every hold admits.
			mask := uint64(0b11) << uint((i%8)*2)
			start := 100 + float64(i/8)*500
			if err := l.HoldReservation(uint64(i+1), "bench", mask, start, start+300, 0, 1e9); err != nil {
				return fmt.Errorf("probe reserve: %w", err)
			}
		}
		var qerr error
		p.op(fmt.Sprintf("reserve.quote_ns_b%d", booked), 20000, func() {
			if _, err := l.QuoteReservation(4, 50, 120, 0); err != nil {
				qerr = err
			}
		})
		if qerr != nil {
			return fmt.Errorf("probe reserve: %w", qerr)
		}
	}
	return nil
}

// grid builds an agents-wide hierarchy of the workloads' shape and
// returns it with the seconds core.New took.
func (p *prober) grid(agents int) (*core.Grid, float64, error) {
	resources, err := scenario.TopologySpec{Agents: agents, Branching: 3, NodeMix: []int{16, 8, 8, 4}}.Build()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	g, err := core.New(resources, core.Options{Policy: core.PolicyFIFOFast, UseAgents: true, Seed: p.rng.Uint64()})
	return g, time.Since(start).Seconds(), err
}

func (p *prober) hierarchy() error {
	type size struct {
		agents int
		label  string
		builds int
	}
	sizes := []size{{1000, "a1k", 3}}
	if p.shrink == 1 {
		sizes = append(sizes, size{10000, "a10k", 3})
	}
	for _, sz := range sizes {
		var g *core.Grid
		for i := 0; i < sz.builds; i++ {
			var secs float64
			var err error
			if g, secs, err = p.grid(sz.agents); err != nil {
				return fmt.Errorf("probe hierarchy: %w", err)
			}
			p.m.add("core.new_s_"+sz.label, secs)
		}
		h := g.Hierarchy()
		now := 0.0
		ns, _ := timeOp(3, 1, func() { h.PullAll(now); now += 10 })
		p.m.add("agent.pull_tick_ms_"+sz.label, ns/1e6)
		if sz.agents != 1000 {
			continue
		}
		// Discovery with warm advertisement caches: the tightest deadline
		// of each application's domain, so slow resources must look at
		// their neighbours instead of accepting at once.
		agents, apps := h.Agents(), p.lib.Models()
		i := 0
		p.op("agent.decide_ns", 20000, func() {
			app := apps[i%len(apps)]
			dec := agents[i%len(agents)].Decide(agent.Request{App: app, Env: "test", Deadline: now + app.DeadlineLo}, now)
			if dec.Kind == agent.DecideFail {
				panic("probe hierarchy: discovery failed on an idle grid")
			}
			i++
		})
	}

	g, _, err := p.grid(300)
	if err != nil {
		return fmt.Errorf("probe hierarchy: %w", err)
	}
	shopper := g.Hierarchy().Agents()[150]
	id := uint64(0)
	var serr error
	ns, _ := timeOp(probeBatches, p.calls(4), func() {
		id++
		held, err := shopper.ShopReservation(agent.ReservationSpec{
			ResvID: id, Holder: "bench", Nodes: 2, Parts: 1, Earliest: 300, Duration: 120, TTL: 1e9, MaxSlip: 600,
		}, 0)
		if err != nil {
			serr = err
			return
		}
		// Released again, so every call shops the same empty books.
		for _, part := range held.Parts {
			if err := shopper.ReleasePart(part.Resource, id, 0); err != nil {
				serr = err
			}
		}
	})
	if serr != nil {
		return fmt.Errorf("probe hierarchy: shop reservation: %w", serr)
	}
	p.m.add("agent.shop_reservation_ms_a300", ns/1e6)
	return nil
}

// simulator times scheduling and executing one no-op event.
func (p *prober) simulator() error {
	const events = 20000
	ns, _ := timeOp(probeBatches, p.calls(10), func() {
		s := sim.NewSimulator()
		for i := 0; i < events; i++ {
			s.At(float64(i), func(float64) {})
		}
		s.RunAll(events + 1)
	})
	p.m.add("sim.event_ns", ns/events)
	return nil
}

// lifecycle records the Fig. 7 case study once (600 requests, agents and
// discovery on) and replays its lifecycle stream through a fresh audit
// observer and a CSV trace sink.
func (p *prober) lifecycle() error {
	const requests = 600
	resources := scenario.Fig7Resources()
	names := make([]string, len(resources))
	nodes := make(map[string]int, len(resources))
	for i, r := range resources {
		names[i], nodes[r.Name] = r.Name, r.Nodes
	}
	rec := trace.NewRecorder(8*requests + 64)
	g, err := core.New(resources, core.Options{Policy: core.PolicyFIFOFast, UseAgents: true, Seed: p.rng.Uint64(), Trace: rec})
	if err != nil {
		return fmt.Errorf("probe lifecycle: %w", err)
	}
	reqs, err := workloadgen.Generate(workloadgen.Spec{
		Seed: p.rng.Uint64(), Count: requests, Interval: 1, AgentNames: names, Library: g.Library(),
	})
	if err == nil {
		err = g.SubmitWorkload(reqs)
	}
	if err == nil {
		err = g.Run()
	}
	if err != nil {
		return fmt.Errorf("probe lifecycle: %w", err)
	}
	events, records, dispatches := rec.Events(), g.Records(), g.Dispatches()
	report, err := g.Metrics(requests)
	if err != nil {
		return fmt.Errorf("probe lifecycle: %w", err)
	}

	replay := func() *audit.Observer {
		o := audit.NewObserver(nodes)
		for _, r := range records {
			o.ObserveRecord(r)
		}
		for _, d := range dispatches {
			o.ObserveDispatch(d)
		}
		for _, ev := range events {
			o.Observe(ev)
		}
		return o
	}
	if res := replay().Finish(report, rec.Dropped()); !res.OK() {
		return fmt.Errorf("probe lifecycle: the replayed stream does not audit clean: %w", res.Err())
	}
	ns, _ := timeOp(probeBatches, p.calls(20), func() { replay() })
	p.m.add("audit.observe_ns", ns/requests)

	ns, _ = timeOp(probeBatches, p.calls(20), func() {
		sink := trace.NewCSVSink(io.Discard)
		for _, ev := range events {
			if ev.Kind == trace.KindArrive {
				sink.Advance(ev.Time)
			}
			sink.Record(ev)
		}
		if err := sink.Close(0); err != nil {
			panic(err) // io.Discard cannot fail
		}
	})
	p.m.add("trace.csvsink_event_ns", ns/float64(len(events)))
	return nil
}

// codec times one wire request plus its dispatch ack through each
// payload encoding.
func (p *prober) codec() error {
	req := xmlmsg.NewWireRequest(42, "sweep3d", "test", 1234.5, farmEmail, xmlmsg.ModeDiscover, []string{"S12", "S4"})
	ack := xmlmsg.NewDispatchAck("S1", 17, 42, 1300, 2, false)
	for _, c := range []struct {
		label string
		codec byte
	}{{"xml", xmlmsg.CodecXML}, {"bin", xmlmsg.CodecBinary}} {
		reqBytes, err := xmlmsg.Encode(c.codec, req)
		if err != nil {
			return fmt.Errorf("probe codec: %w", err)
		}
		ackBytes, err := xmlmsg.Encode(c.codec, ack)
		if err != nil {
			return fmt.Errorf("probe codec: %w", err)
		}
		p.m.add("xmlmsg.request_"+c.label+"_bytes", float64(len(reqBytes)))
		var cerr error
		keep := func(err error) {
			if err != nil {
				cerr = err
			}
		}
		p.op("xmlmsg.encode_"+c.label+"_ns", 5000, func() {
			_, err := xmlmsg.Encode(c.codec, req)
			keep(err)
			_, err = xmlmsg.Encode(c.codec, ack)
			keep(err)
		})
		p.op("xmlmsg.decode_"+c.label+"_ns", 5000, func() {
			_, _, err := xmlmsg.DecodeWith(c.codec, reqBytes)
			keep(err)
			_, _, err = xmlmsg.DecodeWith(c.codec, ackBytes)
			keep(err)
		})
		if cerr != nil {
			return fmt.Errorf("probe codec: %w", cerr)
		}
	}
	return nil
}

// transport times the pooled mux against a handler that does nothing,
// the floor under every farm exchange: one client for round-trip time,
// two for throughput.
func (p *prober) transport() error {
	echo := func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		return xmlmsg.NewDispatchAck("S1", 7, 55, 99, 1, false), nil
	}
	srv, err := transport.ServeWith("127.0.0.1:0", echo, transport.ServerConfig{AllowBinary: true})
	if err != nil {
		return fmt.Errorf("probe transport: %w", err)
	}
	defer srv.Close()
	req := xmlmsg.NewWireRequest(0, "sweep3d", "test", 1e6, farmEmail, xmlmsg.ModeDiscover, nil)

	// exchange sends calls requests over clients goroutines and returns
	// the ascending per-call microseconds and the wall seconds.
	var reqID atomic.Uint64
	exchange := func(c *transport.Client, clients, calls int) ([]float64, float64, error) {
		lat := make([][]float64, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := req
				for i := 0; i < calls/clients; i++ {
					// Distinct IDs: the server deduplicates by request ID.
					r.ReqID = reqID.Add(1)
					t0 := time.Now()
					if _, _, err := c.Call(srv.Addr(), r); err != nil {
						errs[g] = err
						return
					}
					lat[g] = append(lat[g], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		var all []float64
		for g := range lat {
			if errs[g] != nil {
				return nil, 0, errs[g]
			}
			all = append(all, lat[g]...)
		}
		sort.Float64s(all)
		return all, wall, nil
	}

	for _, c := range []struct {
		label  string
		binary bool
	}{{"xml", false}, {"bin", true}} {
		client := transport.NewPooledClient(transport.PoolConfig{Size: farmClients, Binary: c.binary})
		lat, _, err := exchange(client, 1, p.calls(3000))
		if err == nil && !c.binary {
			var both []float64
			var wall float64
			if both, wall, err = exchange(client, farmClients, p.calls(8000)); err == nil {
				p.m.add("transport.echo_req_per_s_c2", float64(len(both))/wall)
			}
		}
		client.Pool.Close()
		if err != nil {
			return fmt.Errorf("probe transport: %w", err)
		}
		p.m.add("transport.echo_rtt_us_"+c.label, quantile(lat, 0.5))
	}
	return nil
}
