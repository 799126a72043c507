package core

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/membership"
	"repro/internal/pace"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// memberState drives the dynamic-hierarchy subsystem on the simulator
// clock: it owns the membership registry, the pre-built joiner agents,
// the optional rebalancer and the per-check dispatch-traffic baseline.
// It is owned by the Grid and shares its single-goroutine discipline.
type memberState struct {
	g   *Grid
	reg *membership.Registry
	reb *membership.Rebalancer

	// pending holds joiner agents built at grid construction (so the
	// base schedulers' RNG streams are untouched) but attached only when
	// their join event fires.
	pending map[string]*agent.Agent

	// lastAccept is each resource's local-accept count at the previous
	// rebalance check; the delta is the dispatch-traffic half of the
	// pressure signal.
	lastAccept map[string]uint64

	// Instruments; all nil (and every use a no-op) without telemetry.
	cJoins   *telemetry.Counter
	cLeaves  *telemetry.Counter
	cDrained *telemetry.Counter
	cMoves   *telemetry.Counter
}

// newMemberState validates the churn plan, pre-builds every joiner and
// wires the rebalancer. Called from New after all base resources, so the
// joiners' policy RNG splits come strictly after the base ones.
func newMemberState(g *Grid, master *sim.RNG) (*memberState, error) {
	ms := &memberState{
		g:          g,
		reg:        membership.NewRegistry(g.hier),
		pending:    map[string]*agent.Agent{},
		lastAccept: map[string]uint64{},
	}
	if plan := g.opts.Churn; plan != nil {
		if err := plan.Validate(g.hier.Head().Name(), g.hier.Names()); err != nil {
			return nil, err
		}
		for _, j := range plan.Joins {
			a, err := g.buildResource(ResourceSpec{
				Name: j.Name, Hardware: j.Hardware, Nodes: j.Nodes,
				Environments: j.Environments,
			}, master)
			if err != nil {
				return nil, err
			}
			a.AdvertTTL = g.opts.AdvertTTL
			if g.injector != nil {
				a.SetGate(g.injector.Registry())
			}
			ms.pending[j.Name] = a
		}
	}
	if pol := g.opts.Rebalance; pol != nil {
		ms.reb = membership.NewRebalancer(ms.reg, *pol)
	}
	if reg := g.opts.Telemetry; reg != nil {
		ms.cJoins = reg.Counter("membership_joins_total")
		ms.cLeaves = reg.Counter("membership_leaves_total")
		ms.cDrained = reg.Counter("membership_drained_total")
		ms.cMoves = reg.Counter("membership_moves_total")
	}
	return ms, nil
}

// schedule queues the plan's join/leave events and the rebalance ticks.
func (ms *memberState) schedule() {
	if plan := ms.g.opts.Churn; plan != nil {
		for _, j := range plan.Joins {
			j := j
			ms.g.simr.At(j.Time, func(now float64) { ms.join(j, now) })
		}
		for _, l := range plan.Leaves {
			l := l
			ms.g.simr.At(l.Time, func(now float64) { ms.leave(l.Name, now) })
		}
	}
	if ms.reb != nil {
		last := ms.g.lastRequestAt
		if t := ms.g.opts.Churn.LastEventTime(); t > last {
			last = t
		}
		ms.g.tick(ms.reb.Policy().CheckPeriod, last, ms.rebalance)
	}
}

// join attaches a pre-built agent at its scheduled instant.
func (ms *memberState) join(j membership.Join, now float64) {
	ms.g.advanceAll(now)
	a, ok := ms.pending[j.Name]
	if !ok {
		ms.g.errs = append(ms.g.errs, fmt.Errorf("core: join at %g: no pending agent %q", now, j.Name))
		return
	}
	parent, err := ms.reg.Join(a, j.Parent)
	if err != nil {
		ms.g.errs = append(ms.g.errs, fmt.Errorf("core: join at %g: %w", now, err))
		return
	}
	delete(ms.pending, j.Name)
	ms.cJoins.Inc()
	ms.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindJoin, Agent: j.Name, Resource: j.Name,
		Detail: "parent=" + parent,
	})
}

// leave detaches the named agent: the registry re-homes its subtree and
// expires its adverts, then the grid drains its queued tasks back
// through discovery so nothing is lost with the departing resource.
func (ms *memberState) leave(name string, now float64) {
	ms.g.advanceAll(now)
	res, err := ms.reg.Leave(name)
	if err != nil {
		ms.g.errs = append(ms.g.errs, fmt.Errorf("core: leave at %g: %w", now, err))
		return
	}
	ms.cLeaves.Inc()
	detail := "parent=" + res.Parent.Name()
	if len(res.Rehomed) > 0 {
		detail += " rehomed=" + strings.Join(res.Rehomed, ",")
	}
	ms.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindLeave, Agent: name, Resource: name,
		Detail: detail,
	})
	ms.drain(res, now)
}

// drain re-places the leaver's not-yet-started tasks through the
// discovery of the agent Grid.route names for the leaver (its former
// parent, or that parent's nearest live ancestor when it is down), one
// offer→withdraw→redispatch chain per task — the same protocol (and the
// same audited invariant: never lost, never run twice) as drift
// migration, in the same single simulator event, so no virtual time
// passes while a task is on two schedulers. Unlike drift
// migration the drain uses full discovery including the best-effort
// fallback: the origin is leaving, so "stay put" is not an option, and a
// late placement beats a lost task. Already-started tasks run to
// completion on the leaver — the grid keeps advancing every scheduler it
// ever built — but nothing new is dispatched to it (its adverts are gone
// and it is no longer anyone's neighbour), which the audit enforces.
func (ms *memberState) drain(res membership.LeaveResult, now float64) {
	origin := res.Agent.Name()
	l := ms.g.locals[origin]
	snapshot := l.Planned()
	if len(snapshot) == 0 {
		return
	}
	arrival, _, live := ms.g.route(origin)
	if !live {
		ms.g.errs = append(ms.g.errs, fmt.Errorf("core: drain off leaving %s: no live agent", origin))
		return
	}
	portal, _ := ms.g.hier.Lookup(arrival)
	// Discovery must not hand a task back to the leaver (stale caches
	// elsewhere could still advertise it) nor route into a crashed agent.
	visited := []string{origin}
	if ms.g.injector != nil {
		visited = append(visited, ms.g.injector.Registry().Down()...)
	}
	drained := 0
	for _, rec := range snapshot {
		// Deleting an earlier task replans the queue and can promote a
		// later one; re-verify this task is still waiting.
		if !stillPlanned(l, rec.TaskID) {
			continue
		}
		app := ""
		if rec.App != nil {
			app = rec.App.Name
		}
		ms.g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindMigrateOffer, ReqID: rec.ReqID,
			Agent: origin, Resource: origin, TaskID: rec.TaskID, App: app,
			Detail: "leave-drain",
		})
		req := agent.Request{
			ReqID:    rec.ReqID,
			App:      rec.App,
			Env:      "test",
			Deadline: rec.Deadline,
			Visited:  append([]string(nil), visited...),
		}
		d, err := portal.HandleRequest(req, now)
		if err != nil {
			// No reachable resource supports the environment at all: the
			// task stays on the leaver and runs there. Surface it — a
			// drain that strands work is worth failing a run over.
			ms.g.errs = append(ms.g.errs, fmt.Errorf("core: drain of req %d off leaving %s: %w", rec.ReqID, origin, err))
			continue
		}
		if err := l.Delete(rec.TaskID, now); err != nil {
			ms.g.errs = append(ms.g.errs, fmt.Errorf("core: drain of req %d: withdraw from %s failed: %w", rec.ReqID, origin, err))
			continue
		}
		drained++
		ms.g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindMigrateWithdraw, ReqID: rec.ReqID,
			Resource: origin, TaskID: rec.TaskID, App: app,
			Detail: "target=" + d.Resource + " leave-drain",
		})
		ms.g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindMigrateRedispatch, ReqID: rec.ReqID,
			Agent: arrival, Resource: d.Resource, TaskID: d.TaskID, App: app,
			Detail: fmt.Sprintf("from=%s oldtask=%d leave-drain", origin, rec.TaskID),
		})
	}
	ms.reg.CountDrained(drained)
	ms.cDrained.Add(uint64(drained))
}

// capacity scores an agent's relative service rate for the rebalancer's
// target choice: processing nodes over the hardware slowdown factor, so
// sixteen SGI nodes outrank sixteen SunUltra1 nodes three to one.
func (ms *memberState) capacity(name string) float64 {
	l, ok := ms.g.locals[name]
	if !ok {
		return 0
	}
	si := l.ServiceInfo()
	if hw, ok := pace.LookupHardware(si.HWType); ok && hw.Factor > 0 {
		return float64(si.NProc) / hw.Factor
	}
	return float64(si.NProc)
}

// rebalance runs one load check and executes at most one move: the
// audited propose→detach→attach chain, all inside this one simulator
// event so the tree is never observably between parents.
func (ms *memberState) rebalance(now float64) {
	ms.g.advanceAll(now)
	// Pressure snapshot: queue depth plus local-accept traffic since the
	// previous check, per attached agent, taken once so the rebalancer's
	// repeated lookups all see the same instant.
	loads := map[string]int{}
	for _, a := range ms.g.hier.InOrder() {
		name := a.Name()
		accepts := uint64(a.Stats().LocalAccept)
		delta := int(accepts - ms.lastAccept[name])
		ms.lastAccept[name] = accepts
		loads[name] = ms.g.locals[name].QueueLen() + delta
	}
	mv, ok := ms.reb.Plan(now,
		func(name string) int { return loads[name] },
		func(name string) float64 { return ms.capacity(name) })
	if !ok {
		return
	}
	ms.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindRehomePropose, Agent: mv.Subtree,
		Detail: fmt.Sprintf("from=%s to=%s load=%d/%d", mv.From, mv.To, mv.FromLoad, mv.ToLoad),
	})
	old, err := ms.reg.Rehome(mv.Subtree, mv.To)
	if err != nil {
		ms.g.errs = append(ms.g.errs, fmt.Errorf("core: rebalance at %g: %w", now, err))
		return
	}
	ms.reb.Moved(now)
	ms.cMoves.Inc()
	ms.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindRehomeDetach, Agent: mv.Subtree,
		Detail: "from=" + old.Name(),
	})
	ms.g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindRehomeAttach, Agent: mv.Subtree,
		Detail: "to=" + mv.To,
	})
}
