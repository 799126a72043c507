// Package core is the top-level facade of the library: it wires the PACE
// evaluation engine, performance-driven local schedulers, the agent
// hierarchy and the discrete-event simulator into a Grid that accepts task
// requests and reports the §3.3 load-balancing metrics.
//
// A Grid is built from resource specs (one per local grid resource, with
// an optional parent forming the agent hierarchy of Fig. 7), configured
// with a local scheduling policy (GA or FIFO) and the agent-based
// discovery switch — the two dimensions of the paper's experiment design
// (Table 2) — then fed a workload and run to completion in virtual time.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PolicyKind selects the local scheduling algorithm.
type PolicyKind string

// Local scheduling policies.
const (
	PolicyFIFO     PolicyKind = "fifo"      // §4.1 baseline, the best of all 2^n−1 allocations
	PolicyFIFOFast PolicyKind = "fifo-fast" // equivalence-tested fast allocation search
	PolicyGA       PolicyKind = "ga"        // §2.1 genetic algorithm
)

// ParsePolicy resolves a policy name as written in scenario files and
// CLI flags. The empty string selects the default (GA, matching
// Options.setDefaults).
func ParsePolicy(name string) (PolicyKind, error) {
	switch k := PolicyKind(name); k {
	case PolicyFIFO, PolicyFIFOFast, PolicyGA:
		return k, nil
	case "":
		return PolicyGA, nil
	default:
		return "", fmt.Errorf("core: unknown policy %q (want fifo, fifo-fast or ga)", name)
	}
}

// ResourceSpec declares one local grid resource and its place in the
// agent hierarchy.
type ResourceSpec struct {
	Name         string
	Hardware     string // a pace hardware model name, e.g. "SGIOrigin2000"
	Nodes        int
	Parent       string   // empty for the head of the hierarchy
	Environments []string // defaults to {"test"}
}

// Options configures a Grid.
type Options struct {
	Policy     PolicyKind // defaults to PolicyGA
	GA         ga.Config  // zero value -> ga.DefaultConfig()
	UseAgents  bool       // enable agent-based service discovery (experiment 3)
	PullPeriod float64    // advertisement pull period; defaults to 10 s (§4.1)
	// PushAdverts enables event-triggered advertisement pushes (§3.1):
	// after accepting work, an agent whose freetime drifted past the
	// push threshold advertises to its neighbours immediately instead of
	// waiting for their next pull.
	PushAdverts bool
	Seed        uint64 // master seed for every stochastic component

	// Workers, when positive, overrides GA.Workers: the number of
	// goroutines each GA policy uses to evaluate its population's costs.
	// The GA is bit-identical for any worker count, so this is purely a
	// wall-clock knob.
	Workers int

	DisableFrontWeightedIdle bool // idle-weighting ablation

	// PredictionError enables the §5 prediction-accuracy study: actual
	// execution times deviate from predictions by up to this relative
	// error (uniform, deterministic per task). 0 is the paper's exact
	// test mode.
	PredictionError float64
	// PredictionBias shifts actual times multiplicatively: +0.2 means
	// the models are systematically 20% optimistic.
	PredictionBias float64

	// Trace, when set, records the lifecycle of every request (arrival,
	// dispatch, execution start, completion).
	Trace *trace.Recorder

	// Audit, when set, receives the run's full lifecycle stream live —
	// every trace event, execution record and dispatch as it happens, plus
	// the post-advance safe horizon — so the internal/audit invariants are
	// proven in O(in-flight) memory instead of over a retained history.
	// The observer only watches: results are byte-identical with it on or
	// off.
	Audit *audit.Observer

	// FaultPlan schedules deterministic grid-level failures (agent
	// crashes, link partitions, lossy links) against the run
	// (Experiment 4). Requires UseAgents: the fault model targets the
	// agent layer, not the standalone schedulers.
	FaultPlan *fault.Plan
	// AdvertTTL expires cached advertisements older than this many
	// seconds from discovery decisions, so dead resources stop
	// attracting dispatches. 0 (the default) never expires them — the
	// paper's fault-free behaviour.
	AdvertTTL float64

	// Migration configures proactive task migration: drift-driven
	// rescheduling of queued work off resources whose observed
	// performance has fallen behind their PACE predictions. Requires
	// UseAgents — migration re-places tasks through agent discovery.
	// The zero value (disabled) changes nothing about a run.
	Migration MigrationPolicy

	// Reservation configures the advance-reservation submit path
	// (SubmitReservationAt): hold TTL, admission slip bound and the
	// expiry-sweep cadence. Inert — no events, no state, byte-identical
	// runs — until a reservation is actually submitted.
	Reservation ReservationPolicy

	// Churn schedules dynamic membership (internal/membership): agents
	// joining and gracefully leaving the hierarchy on the virtual clock,
	// with a leaver's subtree re-homed under its parent, its queue
	// drained back through discovery, and its advertisements expired
	// immediately. Requires UseAgents. Nil — the default — builds no
	// registry and schedules nothing: runs are byte-identical.
	Churn *membership.Plan
	// Rebalance enables the load-driven rebalancer: when one parent's
	// neighbourhood stays lopsided past the policy's hysteresis, a
	// subtree is re-homed under a less-loaded parent via an audited
	// propose→detach→attach chain. Requires UseAgents. Nil disables it.
	Rebalance *membership.Policy

	// Telemetry, when set, instruments every layer of the grid (agents,
	// schedulers, GA policies, the shared PACE engine) on one registry
	// and samples it on a virtual-time period during Run. Nil — the
	// default — leaves every hot path with a single nil-check branch and
	// zero allocations. Instruments are read-only observers: enabling
	// telemetry changes no scheduling decision and no RNG draw, so
	// results are byte-identical either way.
	Telemetry *telemetry.Registry
	// SamplePeriod is the virtual-time series sampling period in
	// simulated seconds; <= 0 defaults to 10 s (the advert pull cadence).
	// Ignored without Telemetry.
	SamplePeriod float64
}

func (o *Options) setDefaults() {
	if o.Policy == "" {
		o.Policy = PolicyGA
	}
	if o.GA == (ga.Config{}) {
		o.GA = ga.DefaultConfig()
	}
	if o.Workers > 0 {
		o.GA.Workers = o.Workers
	}
	if o.PullPeriod <= 0 {
		o.PullPeriod = agent.DefaultPullPeriod
	}
}

// Grid is a complete simulated grid: schedulers, agents, engine and the
// virtual clock driving them.
type Grid struct {
	opts     Options
	engine   *pace.Engine
	lib      *pace.Library
	hier     *agent.Hierarchy
	locals   map[string]*scheduler.Local
	simr     *sim.Simulator
	injector *fault.Injector
	migrator *migrator
	resv     *reservist
	members  *memberState

	dispatches []agent.Dispatch
	errs       []error

	// due indexes which schedulers have a planned start at or before a
	// given virtual time, so a clock advance touches only the schedulers
	// with work due instead of all 10k. Entries are lazily deleted.
	due dueHeap
	// dueNames is advanceAll's list of due scheduler names, reused so an
	// advance allocates nothing once it has grown.
	dueNames []string

	// budget is the RunAll event bound, summed where the events are
	// queued: tick adds its own firings, Run the requests and the fault
	// and churn plans' events.
	budget int

	lastRequestAt float64
	requests      int
	nextReqID     uint64 // grid-wide request IDs, minted at SubmitAt
	ran           bool

	// Grid-level instruments and the virtual-time sampler; all nil (and
	// every use a no-op) when Options.Telemetry is unset.
	sampler     *telemetry.Sampler
	mRequests   *telemetry.Counter
	mErrors     *telemetry.Counter
	mDispatches *telemetry.Counter
}

// New builds a Grid from resource specs.
func New(specs []ResourceSpec, opts Options) (*Grid, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no resources")
	}
	opts.setDefaults()

	g := &Grid{
		opts:   opts,
		engine: pace.NewEngine(),
		lib:    pace.CaseStudyLibrary(),
		locals: map[string]*scheduler.Local{},
		simr:   sim.NewSimulator(),
	}

	master := sim.NewRNG(opts.Seed)
	agents := make(map[string]*agent.Agent, len(specs))
	var ordered []*agent.Agent
	for _, spec := range specs {
		a, err := g.buildResource(spec, master)
		if err != nil {
			return nil, err
		}
		agents[spec.Name] = a
		ordered = append(ordered, a)
	}
	for _, spec := range specs {
		if spec.Parent == "" {
			continue
		}
		parent, ok := agents[spec.Parent]
		if !ok {
			return nil, fmt.Errorf("core: resource %q: unknown parent %q", spec.Name, spec.Parent)
		}
		if err := agent.Link(parent, agents[spec.Name]); err != nil {
			return nil, err
		}
	}
	hier, err := agent.NewHierarchy(ordered)
	if err != nil {
		return nil, err
	}
	g.hier = hier

	for _, a := range ordered {
		a.AdvertTTL = opts.AdvertTTL
	}
	if opts.FaultPlan != nil {
		if !opts.UseAgents {
			return nil, fmt.Errorf("core: fault injection requires agent-based discovery (UseAgents)")
		}
		// The injector's events fan through the grid's own event sink so
		// a streaming audit sees them too; the sink stays an untyped nil
		// when neither tracing nor auditing is on.
		var faultSink trace.Sink
		if opts.Trace != nil || opts.Audit != nil {
			faultSink = gridSink{g}
		}
		inj, err := fault.NewInjector(*opts.FaultPlan, hier, faultSink)
		if err != nil {
			return nil, err
		}
		g.injector = inj
		for _, a := range ordered {
			a.SetGate(inj.Registry())
		}
		// Degradation reaches the schedulers as a static function of the
		// plan: a task's slowdown is decided by its start time alone, so
		// the same plan always stretches the same tasks regardless of how
		// clock advances interleave with fault events.
		for _, name := range inj.Plan().Degraded() {
			plan, local := inj.Plan(), g.locals[name]
			agentName := name
			local.SetSlowdown(func(start float64) float64 {
				return plan.SlowdownAt(agentName, start)
			})
		}
	}
	if opts.Migration.Enabled {
		if !opts.UseAgents {
			return nil, fmt.Errorf("core: migration requires agent-based discovery (UseAgents)")
		}
		g.migrator = newMigrator(g, opts.Migration)
	}
	if reg := opts.Telemetry; reg != nil {
		g.engine.RegisterMetrics(reg)
		reg.Gauge("grid_resources").Set(float64(len(specs)))
		g.mRequests = reg.Counter("grid_requests_total")
		g.mErrors = reg.Counter("grid_request_errors_total")
		g.mDispatches = reg.Counter("grid_dispatches_total")
		g.sampler = telemetry.NewSampler(reg, opts.SamplePeriod)
		// Grid-wide ε over time: mean advance time (deadline − completion)
		// and count over every record already completed at the sample
		// instant. Probes run on the simulator goroutine only, so walking
		// committed scheduler state here is safe (see telemetry/series.go).
		g.sampler.AddProbe("grid_eps_s", func(now float64) float64 {
			var sum float64
			var n int
			for _, l := range g.locals {
				s, c := l.AdvanceBefore(now)
				sum += s
				n += c
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		})
		g.sampler.AddProbe("grid_completed", func(now float64) float64 {
			var n int
			for _, l := range g.locals {
				_, c := l.AdvanceBefore(now)
				n += c
			}
			return float64(n)
		})
	}
	if opts.Churn != nil || opts.Rebalance != nil {
		if !opts.UseAgents {
			return nil, fmt.Errorf("core: dynamic membership requires agent-based discovery (UseAgents)")
		}
		// Joiner agents are built here, after every base resource, so the
		// base schedulers draw exactly the same policy RNG streams a
		// membership-free build would hand them.
		ms, err := newMemberState(g, master)
		if err != nil {
			return nil, err
		}
		g.members = ms
	}
	return g, nil
}

// buildResource constructs one local scheduler and its fronting agent —
// the shared path for start-up resources and runtime joiners, so both
// get identical policy RNG splits (in master draw order), clocks, plan
// hooks, noise models and telemetry.
func (g *Grid) buildResource(spec ResourceSpec, master *sim.RNG) (*agent.Agent, error) {
	hw, ok := pace.LookupHardware(spec.Hardware)
	if !ok {
		return nil, fmt.Errorf("core: resource %q: unknown hardware %q", spec.Name, spec.Hardware)
	}
	if _, dup := g.locals[spec.Name]; dup {
		return nil, fmt.Errorf("core: duplicate resource %q", spec.Name)
	}
	pol, err := scheduler.NewPolicy(string(g.opts.Policy), g.opts.GA, master.Split())
	if err != nil {
		return nil, err
	}
	if p, ok := pol.(*scheduler.GAPolicy); ok {
		p.FrontWeighted = !g.opts.DisableFrontWeightedIdle
	}
	cfg := scheduler.Config{
		Name:         spec.Name,
		HW:           hw,
		NumNodes:     spec.Nodes,
		Policy:       pol,
		Engine:       g.engine,
		Environments: spec.Environments,
	}
	if g.opts.Trace != nil || g.opts.Audit != nil {
		cfg.Executor = tracingExecutor{g}
	}
	opts := g.opts
	if opts.PredictionError != 0 || opts.PredictionBias != 0 {
		noise := pace.NoiseModel{Rel: opts.PredictionError, Bias: opts.PredictionBias, Seed: opts.Seed}
		resKey := fnv64(spec.Name)
		cfg.ActualDuration = func(_ *pace.AppModel, _ int, predicted float64, taskID int) float64 {
			return noise.Apply(predicted, resKey^uint64(taskID))
		}
	}
	local, err := scheduler.NewLocal(cfg)
	if err != nil {
		return nil, err
	}
	// The shared clock keeps lazily advanced schedulers advertising
	// the same freetime an eagerly advanced one would; the plan hook
	// feeds the due index that makes the laziness sound.
	local.SetClock(g.simr.Now)
	name := spec.Name
	local.SetPlanHook(func(at float64) { g.pushDue(at, name) })
	a, err := agent.New(local, g.engine)
	if err != nil {
		return nil, err
	}
	a.PullPeriod = opts.PullPeriod
	if opts.Telemetry != nil {
		local.SetMetrics(scheduler.NewMetrics(opts.Telemetry, spec.Name))
		if gp, ok := pol.(*scheduler.GAPolicy); ok {
			gp.RegisterMetrics(opts.Telemetry, spec.Name)
		}
		a.RegisterMetrics(opts.Telemetry)
	}
	g.locals[spec.Name] = local
	return a, nil
}

// Library returns the application model library.
func (g *Grid) Library() *pace.Library { return g.lib }

// Engine returns the shared PACE evaluation engine.
func (g *Grid) Engine() *pace.Engine { return g.engine }

// Hierarchy returns the agent hierarchy.
func (g *Grid) Hierarchy() *agent.Hierarchy { return g.hier }

// Local returns the named local scheduler.
func (g *Grid) Local(name string) (*scheduler.Local, bool) {
	l, ok := g.locals[name]
	return l, ok
}

// NodeCounts maps every resource a run can execute on — the start-up
// specs and the churn plan's runtime joiners (nil for none) — to its node
// count: the table an audit.Observer is built from before the grid is.
func NodeCounts(specs []ResourceSpec, churn *membership.Plan) map[string]int {
	nodes := make(map[string]int, len(specs))
	for _, s := range specs {
		nodes[s.Name] = s.Nodes
	}
	if churn != nil {
		for _, j := range churn.Joins {
			nodes[j.Name] = j.Nodes
		}
	}
	return nodes
}

// NodesByResource maps resource names to node counts, as the metrics
// package expects.
func (g *Grid) NodesByResource() map[string]int {
	out := make(map[string]int, len(g.locals))
	for n, l := range g.locals {
		out[n] = l.NumNodes()
	}
	return out
}

// SubmitAt schedules a task request for virtual time at: the named
// application with a deadline deadlineRel seconds after arrival, arriving
// at the named agent. With UseAgents the request goes through service
// discovery; without it the receiving agent's local scheduler takes the
// task unconditionally (experiments 1 and 2).
func (g *Grid) SubmitAt(at float64, agentName, appName string, deadlineRel float64) error {
	if g.ran {
		return fmt.Errorf("core: grid already ran")
	}
	app, ok := g.lib.Lookup(appName)
	if !ok {
		return fmt.Errorf("core: unknown application %q", appName)
	}
	if _, ok := g.locals[agentName]; !ok {
		return fmt.Errorf("core: unknown agent %q", agentName)
	}
	if deadlineRel < 0 {
		return fmt.Errorf("core: negative relative deadline %g", deadlineRel)
	}
	if at > g.lastRequestAt {
		g.lastRequestAt = at
	}
	g.requests++
	// The grid-wide request ID is minted here, at arrival, in submission
	// order: it is the identity every lifecycle event, dispatch and
	// execution record of this request carries, no matter how many
	// resources the request crosses (scheduler-local task IDs restart at
	// 1 on every resource and cannot serve as a join key).
	g.nextReqID++
	reqID := g.nextReqID
	g.simr.At(at, func(now float64) {
		g.advanceAll(now)
		g.mRequests.Inc()
		deadline := now + deadlineRel
		arrival, arriveDetail, live := g.route(agentName)
		// The arrive event is recorded unconditionally — the request did
		// enter the grid — so that every arrival terminates in exactly
		// one complete or fail (the conservation invariant internal/audit
		// checks).
		g.traceEvent(trace.Event{Time: now, Kind: trace.KindArrive, ReqID: reqID, Agent: agentName, App: appName, Detail: arriveDetail})
		// failRequest terminates the request: the error joins Run's
		// result and the fail event closes the arrival for the audit.
		failRequest := func(err error, detail string) {
			g.errs = append(g.errs, err)
			g.mErrors.Inc()
			g.traceEvent(trace.Event{Time: now, Kind: trace.KindFail, ReqID: reqID, Agent: agentName, App: appName, Detail: detail})
		}
		if !live {
			err := fmt.Errorf("request at %g: no live agent for arrival at %s", now, agentName)
			failRequest(err, err.Error())
			return
		}
		if g.opts.UseAgents {
			a, _ := g.hier.Lookup(arrival)
			d, err := a.HandleRequest(agent.Request{ReqID: reqID, App: app, Env: "test", Deadline: deadline}, now)
			if err != nil {
				failRequest(fmt.Errorf("request at %g: %w", now, err), err.Error())
				return
			}
			g.recordDispatch(d)
			// Only a trace reads a dispatch's Detail; the audit does not.
			var detail string
			if g.opts.Trace != nil {
				detail = fmt.Sprintf("hops=%d", d.Hops)
				if d.Fallback {
					detail += " fallback"
				}
			}
			g.traceEvent(trace.Event{
				Time: now, Kind: trace.KindDispatch, ReqID: reqID, Agent: agentName,
				Resource: d.Resource, TaskID: d.TaskID, App: appName, Detail: detail,
			})
			if g.opts.PushAdverts {
				if acceptor, ok := g.hier.Lookup(d.Resource); ok {
					acceptor.MaybePush(now)
				}
			}
			return
		}
		id, err := g.locals[agentName].SubmitRequest(app, deadline, now, reqID)
		if err != nil {
			failRequest(fmt.Errorf("request at %g: %w", now, err), err.Error())
			return
		}
		g.recordDispatch(agent.Dispatch{Resource: agentName, TaskID: id, ReqID: reqID})
		g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindDispatch, ReqID: reqID, Agent: agentName,
			Resource: agentName, TaskID: id, App: appName, Detail: "direct",
		})
	})
	return nil
}

// route is the one answer to "which live agent receives a request
// addressed to name": a departed agent's closest still-active ancestor
// first (it left gracefully, so its last parent stands in as the portal),
// then, if that agent is crashed, its nearest live ancestor (the portal
// retries up the hierarchy). detail describes each reroute; ok is false
// when no live agent can take the request.
func (g *Grid) route(name string) (arrival, detail string, ok bool) {
	arrival = name
	if g.members != nil {
		if arrival, ok = g.members.reg.Route(name); !ok {
			return "", "", false
		}
		if arrival != name {
			detail = "rerouted to " + arrival + " (agent left)"
		}
	}
	if g.injector != nil {
		crashed := arrival
		if arrival, ok = g.injector.RerouteArrival(crashed); !ok {
			return "", "", false
		}
		if arrival != crashed {
			if detail != "" {
				detail += "; "
			}
			detail += "rerouted to " + arrival + " (agent down)"
		}
	}
	return arrival, detail, true
}

// traceEvent fans one lifecycle event to the streaming audit and the
// trace recorder (and through them to any attached sinks).
func (g *Grid) traceEvent(ev trace.Event) {
	if g.opts.Audit != nil {
		g.opts.Audit.Observe(ev)
	}
	if g.opts.Trace != nil {
		g.opts.Trace.Record(ev)
	}
}

// recordDispatch commits a discovery decision to the dispatch log, the
// dispatch counter and the streaming audit.
func (g *Grid) recordDispatch(d agent.Dispatch) {
	g.dispatches = append(g.dispatches, d)
	g.mDispatches.Inc()
	if g.opts.Audit != nil {
		g.opts.Audit.ObserveDispatch(d)
	}
}

// gridSink adapts the grid's event fan-out to trace.Sink for subsystems
// (the fault injector) that emit lifecycle events on their own.
type gridSink struct{ g *Grid }

func (s gridSink) Record(ev trace.Event) { s.g.traceEvent(ev) }

// SubmitWorkload schedules a whole request stream.
func (g *Grid) SubmitWorkload(reqs []workload.Request) error {
	for _, r := range reqs {
		if err := g.SubmitAt(r.At, r.AgentName, r.AppName, r.DeadlineRel); err != nil {
			return err
		}
	}
	return nil
}

// pushDue records that the named scheduler may have a planned start at
// time at. Installed as every scheduler's plan hook.
func (g *Grid) pushDue(at float64, name string) {
	g.due.push(dueEntry{at: at, name: name})
}

// advanceAll moves every scheduler with work due past the grid clock,
// then announces now as the safe horizon to the streaming consumers.
//
// The old implementation advanced all schedulers on every event —
// O(resources) per arrival, ruinous at 10k agents. The due heap makes
// the advance touch only the schedulers whose cached plan horizon
// (Local.NextPlannedStart) is at or before now: every finite horizon has
// a heap entry at exactly its value (refreshNextStart pushes one on
// every replan and promotion), so no promotion can be missed. Stale
// entries — the plan changed after the push — are harmless: AdvanceTo on
// a scheduler with nothing due is a constant-time clock bump. Names are
// sorted and deduplicated before advancing, so promotions happen in the
// same resource order the full sweep used and the lifecycle stream is
// byte-identical.
func (g *Grid) advanceAll(now float64) {
	for {
		names := g.dueNames[:0]
		for len(g.due) > 0 && g.due[0].at <= now {
			names = append(names, g.due.pop().name)
		}
		g.dueNames = names
		if len(names) == 0 {
			break
		}
		slices.Sort(names)
		for _, n := range slices.Compact(names) {
			g.locals[n].AdvanceTo(now)
		}
	}
	g.afterAdvance(now)
}

// afterAdvance announces the watermark: every promotion at or before now
// has been committed, so all future lifecycle events and records carry
// times >= now. It must run only after the advance loop — announcing
// earlier would let streaming sinks flush past records still to come.
func (g *Grid) afterAdvance(now float64) {
	if g.opts.Audit != nil {
		g.opts.Audit.Advance(now)
	}
	if g.opts.Trace != nil {
		g.opts.Trace.Advance(now)
	}
}

// dueEntry marks that the named scheduler had a planned start at time at
// when the entry was pushed.
type dueEntry struct {
	at   float64
	name string
}

// dueHeap is a binary min-heap of dueEntry on at, hand-rolled over a
// value slice like sim.eventQueue. Ties need no secondary order: the
// advance loop collects every due name and sorts before advancing.
type dueHeap []dueEntry

func (q *dueHeap) push(e dueEntry) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].at >= h[parent].at {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *dueHeap) pop() dueEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = dueEntry{}
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].at < h[smallest].at {
			smallest = l
		}
		if r < n && h[r].at < h[smallest].at {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Run executes all scheduled requests in virtual time — with periodic
// advertisement pulls when agents are enabled — then drains every
// scheduler so all accepted tasks complete. It returns the combined
// error of any failed requests.
func (g *Grid) Run() error {
	if g.ran {
		return fmt.Errorf("core: grid already ran")
	}
	g.ran = true
	if g.opts.UseAgents {
		g.hier.PullAll(0)
		// Pulls continue through the churn tail (none without a churn
		// plan) so late joiners start advertising even when every request
		// has already arrived.
		last := g.lastRequestAt
		if t := g.opts.Churn.LastEventTime(); t > last {
			last = t
		}
		g.tick(g.opts.PullPeriod, last, g.hier.PullAll)
	}
	if g.injector != nil {
		g.injector.Schedule(g.simr)
		g.budget += 4*len(g.opts.FaultPlan.Events) + 16
	}
	if g.migrator != nil {
		// Scheduled after the pull Every and the fault events so a
		// migration check at a coincident instant sees fresh adverts and
		// the post-fault grid. With the policy disabled no event is ever
		// queued — the stream the schedulers see is byte-identical.
		g.tick(g.migrator.pol.CheckPeriod, g.lastRequestAt, g.migrator.check)
	}
	if g.members != nil {
		// Join/leave events and the rebalance ticks are scheduled after
		// the pull Every, the fault events and the migrator, so a
		// membership mutation at a coincident instant acts on the
		// post-pull, post-fault grid. With membership off this branch
		// queues nothing: the event stream is byte-identical.
		g.members.schedule()
		g.budget += 4*g.opts.Churn.Events() + 16
	}
	if g.resv != nil {
		// The expiry sweep retires holds whose TTL lapsed unconfirmed.
		// Scheduled only when a reservation was submitted, so runs without
		// reservations see a byte-identical event stream.
		g.tick(g.resv.pol.SweepPeriod, g.lastRequestAt, g.resv.sweep)
	}
	if g.sampler != nil {
		// Scheduled after the pull Every so at coincident fire times the
		// sample observes the post-pull state; the sampler itself mutates
		// nothing and draws no randomness, so the event stream the
		// schedulers see is identical with or without it.
		g.sampler.Sample(0)
		g.tick(g.sampler.Period(), g.lastRequestAt, g.sampler.Sample)
	}
	// A mega-grid run legitimately exceeds 10M events; a run that exceeds
	// its own summed budget has a runaway event loop, and RunAll fails
	// loudly rather than truncating the simulation silently. The floor
	// keeps the bound from ever tightening for small workloads.
	g.simr.RunAll(max(g.budget+g.requests+1024, 10_000_000))
	for _, name := range g.allNames() {
		g.locals[name].Drain()
	}
	if g.sampler != nil {
		// One final point after the drain, at the completion time of the
		// last record, so the series ends with the finished grid.
		var end float64
		for _, r := range g.Records() {
			if r.End > end {
				end = r.End
			}
		}
		g.sampler.Sample(end)
	}
	return errors.Join(g.errs...)
}

// tick schedules fn every period of virtual time, the last firing being
// the first at or past last, and adds those firings to the event budget.
func (g *Grid) tick(period, last float64, fn func(now float64)) {
	g.budget += int(last/period) + 2
	g.simr.Every(period, func(now float64) bool {
		fn(now)
		return now < last
	})
}

// SimEvents reports how many simulator events the run executed — the
// numerator of the events-per-second throughput figure.
func (g *Grid) SimEvents() uint64 { return g.simr.Executed() }

// allNames lists every scheduler in the grid's canonical natural order.
// Without dynamic membership that is exactly the hierarchy's name list;
// with it, departed agents are gone from the tree but their records and
// still-running tasks are not, so the walk covers all locals.
func (g *Grid) allNames() []string {
	if g.members == nil {
		return g.hier.Names()
	}
	names := make([]string, 0, len(g.locals))
	for n := range g.locals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agent.LessAgentName(names[i], names[j]) })
	return names
}

// Records returns every execution record across the grid.
func (g *Grid) Records() []scheduler.Record {
	var out []scheduler.Record
	for _, name := range g.allNames() {
		out = append(out, g.locals[name].Records()...)
	}
	return out
}

// Dispatches returns where each request landed, in submission order.
func (g *Grid) Dispatches() []agent.Dispatch {
	out := make([]agent.Dispatch, len(g.dispatches))
	copy(out, g.dispatches)
	return out
}

// Metrics computes the §3.3 report over all records. minWindow sets the
// minimum measurement period (typically the request phase length).
func (g *Grid) Metrics(minWindow float64) (metrics.GridReport, error) {
	return g.MetricsOver(g.Records(), minWindow)
}

// MetricsOver is Metrics over a caller-held copy of the grid's records,
// so a mega-run's history is not copied a second time.
func (g *Grid) MetricsOver(recs []scheduler.Record, minWindow float64) (metrics.GridReport, error) {
	return metrics.Compute(recs, g.NodesByResource(), metrics.WindowOver(recs, minWindow))
}

// Requests returns the number of scheduled requests.
func (g *Grid) Requests() int { return g.requests }

// Telemetry returns the registry the grid was built with, nil when
// uninstrumented.
func (g *Grid) Telemetry() *telemetry.Registry { return g.opts.Telemetry }

// Sampler returns the virtual-time sampler, nil when uninstrumented.
func (g *Grid) Sampler() *telemetry.Sampler { return g.sampler }

// TelemetryExport bundles the final registry snapshot with the sampled
// virtual-time series for JSON export; nil when uninstrumented.
func (g *Grid) TelemetryExport() *telemetry.Export {
	if g.opts.Telemetry == nil {
		return nil
	}
	return telemetry.NewExport(g.opts.Telemetry, g.sampler)
}

// MigrationStats reports what the migration policy did during the run;
// the zero value when migration was not enabled.
func (g *Grid) MigrationStats() MigrationStats {
	if g.migrator == nil {
		return MigrationStats{}
	}
	return g.migrator.stats
}

// MembershipStats reports what the dynamic-hierarchy subsystem did
// during the run; the zero value when membership was not enabled.
func (g *Grid) MembershipStats() membership.Stats {
	if g.members == nil {
		return membership.Stats{}
	}
	return g.members.reg.Stats()
}

// FaultStats reports what the fault injector did during the run; the
// zero value when no fault plan was configured.
func (g *Grid) FaultStats() fault.Stats {
	if g.injector == nil {
		return fault.Stats{}
	}
	return g.injector.Stats()
}

// fnv64 hashes a string (FNV-1a), used to derive per-resource noise keys.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// tracingExecutor forwards execution records into the grid's lifecycle
// stream.
type tracingExecutor struct{ g *Grid }

// Launch implements scheduler.Executor.
func (e tracingExecutor) Launch(rec scheduler.Record) { e.g.emitRecord(rec) }

// emitRecord feeds one committed execution record to the streaming audit
// and synthesizes its start/complete lifecycle events — the record
// first, so a terminal complete event never retires a request before its
// record is counted.
func (g *Grid) emitRecord(rec scheduler.Record) {
	if g.opts.Audit != nil {
		g.opts.Audit.ObserveRecord(rec)
	}
	app := ""
	if rec.App != nil {
		app = rec.App.Name
	}
	g.traceEvent(trace.Event{
		Time: rec.Start, Kind: trace.KindStart,
		ReqID: rec.ReqID, Resource: rec.Resource, TaskID: rec.TaskID, App: app,
	})
	var detail string
	if g.opts.Trace != nil {
		detail = fmt.Sprintf("deadline_met=%v", rec.End <= rec.Deadline)
	}
	g.traceEvent(trace.Event{
		Time: rec.End, Kind: trace.KindComplete,
		ReqID: rec.ReqID, Resource: rec.Resource, TaskID: rec.TaskID, App: app,
		Detail: detail,
	})
}
