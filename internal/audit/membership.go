package audit

import (
	"fmt"

	"repro/internal/trace"
)

// Membership invariants (g) and the crash invariant (h), layered on (a)–(e):
//
//	(g1) no post-departure work — once a resource's leave event is
//	     observed, no dispatch, redispatch, migrate-redispatch or start
//	     lands on it strictly after the leave instant. Tasks already
//	     running at the leave may complete there (the grid drains only
//	     the unstarted queue); a join for the same name lifts the bar.
//	(g2) atomic re-homing — every rehome-detach pairs with a
//	     rehome-attach for the same agent at the same virtual instant
//	     (and both follow a same-instant rehome-propose), so the tree is
//	     never observably between parents. An unmatched detach or
//	     propose at the end of the run is a violation.
//	(g3) lifecycle sanity — an agent leaves only while present (joined
//	     at run start or via a join event) and at most once between
//	     joins.
//	(h)  no placement on a crashed agent — no dispatch, redispatch,
//	     migrate-redispatch or reserve-confirm lands on an agent between
//	     its peerdown and peerup (check "crash").
//
// Membership events are grid-scoped, not request-scoped: they join on
// the agent name carried in Event.Agent/Resource. The no-loss and
// no-double-run proof for a leaver's drained queue needs nothing here —
// the drain reuses the migrate-offer/withdraw/redispatch chain, which
// invariant (a) already folds.

// rehomeChain is one in-flight propose→detach→attach chain.
type rehomeChain struct {
	agent    string
	time     float64
	detached bool
}

// observeMembership folds one grid-level membership event.
func (o *Observer) observeMembership(ev trace.Event) {
	name := ev.Agent
	if name == "" {
		name = ev.Resource
	}
	if name == "" {
		o.add("identity", ev.ReqID, fmt.Sprintf("%s event at t=%g names no agent", ev.Kind, ev.Time))
		return
	}
	switch ev.Kind {
	case trace.KindJoin:
		o.counts.Joins++
		// A join (or re-join) lifts the post-departure bar (g1).
		r := &o.res[o.intern(name)]
		r.left = false
		r.present = true
	case trace.KindLeave:
		o.counts.Leaves++
		// (g3) leaving requires being there. Resources in the static
		// node map are present from the start; anything else must have
		// joined first.
		r := &o.res[o.intern(name)]
		if !r.static && !r.present {
			o.add("membership", ev.ReqID, fmt.Sprintf("%s left at t=%g without ever joining", name, ev.Time))
		}
		if r.left {
			o.add("membership", ev.ReqID, fmt.Sprintf("%s left at t=%g but had already left at t=%g", name, ev.Time, r.leftAt))
		}
		r.left, r.leftAt = true, ev.Time
		r.present = false
		o.anyLeft = true
	case trace.KindRehomePropose:
		o.counts.RehomeProposes++
		o.rehomes = append(o.rehomes, &rehomeChain{agent: name, time: ev.Time})
	case trace.KindRehomeDetach:
		c := o.openRehome(name, ev.Time)
		if c == nil {
			o.add("membership", ev.ReqID, fmt.Sprintf("rehome-detach of %s at t=%g without a same-instant rehome-propose", name, ev.Time))
			return
		}
		if c.detached {
			o.add("membership", ev.ReqID, fmt.Sprintf("second rehome-detach of %s at t=%g in one chain", name, ev.Time))
			return
		}
		c.detached = true
	case trace.KindRehomeAttach:
		c := o.openRehome(name, ev.Time)
		if c == nil || !c.detached {
			o.add("membership", ev.ReqID, fmt.Sprintf("rehome-attach of %s at t=%g without a same-instant rehome-detach", name, ev.Time))
			return
		}
		o.counts.Rehomes++
		o.closeRehome(c)
	}
}

// openRehome finds the open chain for the agent at the given instant.
func (o *Observer) openRehome(name string, t float64) *rehomeChain {
	for _, c := range o.rehomes {
		if c.agent == name && c.time == t {
			return c
		}
	}
	return nil
}

// closeRehome retires a completed chain.
func (o *Observer) closeRehome(done *rehomeChain) {
	for i, c := range o.rehomes {
		if c == done {
			o.rehomes = append(o.rehomes[:i], o.rehomes[i+1:]...)
			return
		}
	}
}

// checkDeparted raises (g1) for a placement or start event landing on a
// resource strictly after its leave.
func (o *Observer) checkDeparted(ev trace.Event) {
	if !o.anyLeft || ev.Resource == "" {
		return
	}
	if i, ok := o.lookup(ev.Resource); ok {
		if r := &o.res[i]; r.left && ev.Time > r.leftAt {
			o.add("membership", ev.ReqID, fmt.Sprintf("%s on %s at t=%g, after the resource left at t=%g", ev.Kind, ev.Resource, ev.Time, r.leftAt))
		}
	}
}

// checkCrashed raises (h) for a placement — dispatch, redispatch,
// migrate-redispatch or reserve-confirm — landing on an agent between
// its peerdown and peerup. Starts stay legal: tasks already executing
// survive their agent's crash.
func (o *Observer) checkCrashed(ev trace.Event) {
	if o.nDown == 0 {
		return
	}
	if i, ok := o.lookup(ev.Resource); ok {
		if r := &o.res[i]; r.down {
			o.add("crash", ev.ReqID, fmt.Sprintf("%s on %s at t=%g, while the agent was down since t=%g", ev.Kind, ev.Resource, ev.Time, r.downAt))
		}
	}
}

// finishMembership raises (g2) for chains still open at the end of the
// run, in observation order.
func (o *Observer) finishMembership() {
	for _, c := range o.rehomes {
		stage := "rehome-propose"
		if c.detached {
			stage = "rehome-detach"
		}
		o.add("membership", 0, fmt.Sprintf("%s of %s at t=%g never completed its attach: the subtree is between parents", stage, c.agent, c.time))
	}
}
