package core

import (
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Migration-policy defaults; see MigrationPolicy.
const (
	// DefaultMigrationCheckPeriod is the drift-check cadence in simulated
	// seconds, matching the §4.1 advertisement pull period so a check
	// always sees adverts at most one period old.
	DefaultMigrationCheckPeriod = 10.0
	// DefaultMigrationDriftThreshold is the relative drift (observed
	// durations over predicted, minus one) a check must exceed to count
	// as breached: 0.5 means tasks are running at least 50% longer than
	// the PACE model promised.
	DefaultMigrationDriftThreshold = 0.5
	// DefaultMigrationWindow is the hysteresis: consecutive breached
	// checks required before tasks are offered, so a single slow tick
	// never triggers churn.
	DefaultMigrationWindow = 2
)

// MigrationPolicy configures proactive task migration — the grid's
// answer to performance *drift* rather than outright failure. Each
// check period, every resource's observed execution durations over the
// last window are compared against the PACE predictions its plans were
// built on; when the relative drift stays above DriftThreshold for
// Window consecutive checks, the resource's not-yet-started tasks are
// offered back to the hierarchy, which re-places each one through the
// normal eq. 10 matchmaking under the same grid-wide request ID. Only
// placements expected to meet the task's deadline are accepted — a
// rejected offer leaves the task where it is.
//
// The zero value (Enabled false, the default) schedules nothing, draws
// no randomness and records no events: runs are byte-identical to a
// build without the policy.
type MigrationPolicy struct {
	Enabled bool
	// CheckPeriod is the drift-check cadence in simulated seconds;
	// <= 0 selects DefaultMigrationCheckPeriod.
	CheckPeriod float64
	// DriftThreshold is the relative drift that counts as breached;
	// <= 0 selects DefaultMigrationDriftThreshold.
	DriftThreshold float64
	// Window is the consecutive breached checks before an offer round;
	// <= 0 selects DefaultMigrationWindow.
	Window int
	// Cooldown is the minimum time between offer rounds on one
	// resource, so a still-degraded node is not drained on every check;
	// <= 0 selects 2×CheckPeriod.
	Cooldown float64
	// MaxPerRound caps the tasks offered per round per resource;
	// 0 offers every unstarted task.
	MaxPerRound int
}

// withDefaults resolves the zero fields.
func (p MigrationPolicy) withDefaults() MigrationPolicy {
	if p.CheckPeriod <= 0 {
		p.CheckPeriod = DefaultMigrationCheckPeriod
	}
	if p.DriftThreshold <= 0 {
		p.DriftThreshold = DefaultMigrationDriftThreshold
	}
	if p.Window <= 0 {
		p.Window = DefaultMigrationWindow
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * p.CheckPeriod
	}
	return p
}

// MigrationStats counts what the migration policy did during a run.
type MigrationStats struct {
	Checks   int // per-resource drift checks with a measurable signal
	Breaches int // checks whose drift exceeded the threshold
	Offers   int // tasks offered for re-placement
	Accepts  int // offers accepted: the task migrated
	Rejects  int // offers rejected: no deadline-meeting target, task stayed
}

// migState is the per-resource hysteresis state.
type migState struct {
	streak    int     // consecutive breached checks
	lastOffer float64 // virtual time of the last offer round
}

// migrator drives the migration policy on the simulator clock. It is
// owned by the Grid and shares its single-goroutine discipline.
type migrator struct {
	g   *Grid
	pol MigrationPolicy

	state map[string]*migState
	stats MigrationStats

	// Instruments; all nil (and every use a no-op) without telemetry.
	cOffers  *telemetry.Counter
	cAccepts *telemetry.Counter
	cRejects *telemetry.Counter
	// hLatency observes, per migrated task, the virtual seconds from the
	// request's arrival to its migration — how long the task sat on the
	// drifting resource before the policy rescued it.
	hLatency *telemetry.Histogram
}

func newMigrator(g *Grid, pol MigrationPolicy) *migrator {
	m := &migrator{g: g, pol: pol.withDefaults(), state: map[string]*migState{}}
	for name := range g.locals {
		m.state[name] = &migState{lastOffer: math.Inf(-1)}
	}
	if reg := g.opts.Telemetry; reg != nil {
		m.cOffers = reg.Counter("migration_offers_total")
		m.cAccepts = reg.Counter("migration_accepts_total")
		m.cRejects = reg.Counter("migration_rejects_total")
		m.hLatency = reg.Histogram("migration_latency_s")
	}
	return m
}

// check runs one drift check over every resource, offering tasks off
// the breached ones. Resources are visited in name order — the same
// deterministic order advanceAll uses.
func (m *migrator) check(now float64) {
	m.g.advanceAll(now) // commit every start the clock passed; Planned() is then strictly future work
	for _, a := range m.g.hier.InOrder() {
		m.checkResource(a.Name(), now)
	}
}

func (m *migrator) checkResource(name string, now float64) {
	st := m.state[name]
	if st == nil {
		// A runtime joiner (dynamic membership) was not known at build
		// time; its hysteresis state starts fresh on first sight.
		st = &migState{lastOffer: math.Inf(-1)}
		m.state[name] = st
	}
	if m.g.injector != nil && m.g.injector.Registry().AgentDown(name) {
		st.streak = 0 // a crashed resource is the injector's problem, not ours
		return
	}
	l := m.g.locals[name]
	obs, pred, n := l.DriftBetween(now-m.pol.CheckPeriod, now)
	if n == 0 || pred <= 0 {
		return // no completions this window: no signal, hold the streak
	}
	m.stats.Checks++
	drift := obs/pred - 1
	if drift < m.pol.DriftThreshold {
		st.streak = 0
		return
	}
	m.stats.Breaches++
	st.streak++
	if st.streak < m.pol.Window || now-st.lastOffer < m.pol.Cooldown {
		return
	}
	st.lastOffer = now
	st.streak = 0
	m.offerRound(name, l, now, drift)
}

// offerRound offers the resource's unstarted tasks to the hierarchy,
// earliest planned start first (the task that would otherwise block the
// degraded queue longest moves first).
func (m *migrator) offerRound(origin string, l *scheduler.Local, now, drift float64) {
	snapshot := l.Planned()
	if len(snapshot) == 0 {
		return
	}
	if m.pol.MaxPerRound > 0 && len(snapshot) > m.pol.MaxPerRound {
		snapshot = snapshot[:m.pol.MaxPerRound]
	}
	targets := m.targets(origin, now)
	if len(targets) == 0 {
		return
	}
	// Discovery at the target must avoid the drifting origin (its PACE
	// predictions still look attractive — that blindness is the whole
	// problem) and every currently-down agent.
	visited := []string{origin}
	if m.g.injector != nil {
		visited = append(visited, m.g.injector.Registry().Down()...)
	}
	for _, rec := range snapshot {
		// Deleting an earlier task replans the queue, which can pull a
		// later task's start back to now and promote it on the next
		// Delete's internal clock advance — so re-verify this task is
		// still waiting before offering it anywhere.
		if !stillPlanned(l, rec.TaskID) {
			continue
		}
		m.offerTask(origin, l, rec, targets, visited, now, drift)
	}
}

// offerTask runs the offer → withdraw → re-dispatch protocol for one
// task. The target dispatch and the origin withdrawal happen inside one
// simulator event — no virtual time passes between them — so the
// transient instant where both schedulers know the task is unobservable
// and the audit sees an atomic chain.
func (m *migrator) offerTask(origin string, l *scheduler.Local, rec scheduler.Record, targets []*agent.Agent, visited []string, now, drift float64) {
	app := ""
	if rec.App != nil {
		app = rec.App.Name
	}
	m.stats.Offers++
	m.cOffers.Inc()
	m.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateOffer, ReqID: rec.ReqID,
		Agent: origin, Resource: origin, TaskID: rec.TaskID, App: app,
		Detail: fmt.Sprintf("drift=%.2f", drift),
	})
	req := agent.Request{
		ReqID:    rec.ReqID,
		App:      rec.App,
		Env:      "test",
		Deadline: rec.Deadline,
		Visited:  append([]string(nil), visited...),
	}
	var d agent.Dispatch
	var acceptor *agent.Agent
	for _, t := range targets {
		dd, err := t.HandleMigration(req, now)
		if err == nil {
			d, acceptor = dd, t
			break
		}
	}
	if acceptor == nil {
		m.stats.Rejects++
		m.cRejects.Inc()
		return // the task stays queued on the origin
	}
	if err := l.Delete(rec.TaskID, now); err != nil {
		// Unreachable by construction (the task was re-verified as
		// planned an instant ago and the target never touches the
		// origin), but a migration must never duplicate work: surface
		// the double booking instead of hiding it.
		m.g.errs = append(m.g.errs, fmt.Errorf("core: migration of req %d: withdraw from %s failed: %w", rec.ReqID, origin, err))
		return
	}
	m.stats.Accepts++
	m.cAccepts.Inc()
	m.hLatency.Observe(now - rec.Arrival)
	m.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateWithdraw, ReqID: rec.ReqID,
		Resource: origin, TaskID: rec.TaskID, App: app,
		Detail: "target=" + d.Resource,
	})
	m.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateRedispatch, ReqID: rec.ReqID,
		Agent: acceptor.Name(), Resource: d.Resource, TaskID: d.TaskID, App: app,
		Detail: fmt.Sprintf("from=%s oldtask=%d", origin, rec.TaskID),
	})
}

// targets returns the agents a drifting origin offers to: its upper
// agent, or — at the head of the hierarchy — each lower in link order.
// An offer is an exchange like any other, so a crashed peer or a cut
// origin–peer link (an overlapping partition during the degradation)
// rules a target out for as long as the fault holds.
func (m *migrator) targets(origin string, now float64) []*agent.Agent {
	a, ok := m.g.hier.Lookup(origin)
	if !ok {
		return nil
	}
	reachable := func(name string) bool {
		if m.g.injector == nil {
			return true
		}
		return m.g.injector.Registry().ExchangeErr(origin, name, now) == nil
	}
	if up, ok := a.Upper().(*agent.Agent); ok && up != nil {
		if reachable(up.Name()) {
			return []*agent.Agent{up}
		}
		return nil // partitioned from the parent: lowers are not ours to offer to
	}
	var out []*agent.Agent
	for _, p := range a.Lowers() {
		if la, ok := p.(*agent.Agent); ok && reachable(la.Name()) {
			out = append(out, la)
		}
	}
	return out
}

// stillPlanned reports whether the task is still in the scheduler's
// unstarted plan.
func stillPlanned(l *scheduler.Local, taskID int) bool {
	for _, r := range l.Planned() {
		if r.TaskID == taskID {
			return true
		}
	}
	return false
}
