package core

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// relocate moves one not-yet-started task off origin through the
// audited offer → withdraw → redispatch chain; drift migration and
// leave-draining both move work this way. It emits the offer (offer is
// its detail) and asks place to re-place the task's request, under its
// request ID, avoiding origin and every down agent; place returns the
// dispatch and the agent that made it. relocate then withdraws the task
// from origin and emits the withdraw and the redispatch, note appended to
// their details. All of it happens in one simulator event, so no virtual
// time passes while both schedulers know the task and the audit sees an
// atomic chain. It reports whether the task moved; a placement error is
// returned and leaves the task on origin. A failed withdrawal cannot
// happen — withdrawing an earlier task replans the queue and can promote
// a later one, so callers re-verify each task with Local.IsPlanned an
// instant before — but a move must never duplicate work, so it joins the
// run's errors, named after op.
func (g *Grid) relocate(op, origin string, rec scheduler.Record, now float64, offer, note string,
	place func(agent.Request) (d agent.Dispatch, by string, err error)) (bool, error) {
	app := ""
	if rec.App != nil {
		app = rec.App.Name
	}
	g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateOffer, ReqID: rec.ReqID,
		Agent: origin, Resource: origin, TaskID: rec.TaskID, App: app,
		Detail: offer,
	})
	visited := []string{origin}
	if g.injector != nil {
		visited = append(visited, g.injector.Registry().Down()...)
	}
	d, by, err := place(agent.Request{ReqID: rec.ReqID, App: rec.App, Env: "test", Deadline: rec.Deadline, Visited: visited})
	if err != nil {
		return false, err
	}
	if err := g.locals[origin].Delete(rec.TaskID, now); err != nil {
		g.errs = append(g.errs, fmt.Errorf("core: %s of req %d: withdraw from %s failed: %w", op, rec.ReqID, origin, err))
		return false, nil
	}
	if note != "" {
		note = " " + note
	}
	g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateWithdraw, ReqID: rec.ReqID,
		Resource: origin, TaskID: rec.TaskID, App: app,
		Detail: "target=" + d.Resource + note,
	})
	g.traceEvent(trace.Event{
		Time: now, Kind: trace.KindMigrateRedispatch, ReqID: rec.ReqID,
		Agent: by, Resource: d.Resource, TaskID: d.TaskID, App: app,
		Detail: fmt.Sprintf("from=%s oldtask=%d%s", origin, rec.TaskID, note),
	})
	return true, nil
}
