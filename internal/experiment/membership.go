package experiment

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/scenario"
)

// Exp7 is the dynamic-hierarchy configuration: experiment 3 (GA + agent
// discovery) under a flash crowd while the tree itself churns — powerful
// resources join at runtime, a loaded resource gracefully leaves — with
// the load-driven rebalancer deciding whether subtrees re-home. The
// paper's tree is fixed at start-up; this experiment measures making it
// a runtime object.
var Exp7 = Setup{ID: 7, Policy: core.PolicyGA, UseAgents: true, Label: "GA + agents + churn + flash crowd (dynamic tree)"}

// DefaultChurnPlan returns the Experiment 7 membership schedule, scaled
// to a request phase of roughly the flash-crowd span: two powerful
// resources join early but attach at the *bottom* of the tree (under the
// weakest leaves — a new machine rarely arrives at the root), and S9
// gracefully departs mid-crowd, draining its queue. Discovery is
// neighbour-local, so the joiners' capacity is nearly invisible from the
// loaded region of the tree — unless the rebalancer re-homes traffic
// toward them, which is exactly the effect the experiment measures.
func DefaultChurnPlan() scenario.ChurnSpec {
	return scenario.ChurnSpec{
		Joins: []scenario.ChurnJoin{
			{Time: 60, Name: "S13", Hardware: "SGIOrigin2000", Nodes: 16, Parent: "S11"},
			{Time: 90, Name: "S14", Hardware: "SGIOrigin2000", Nodes: 16, Parent: "S12"},
		},
		Leaves: []scenario.ChurnLeave{
			{Time: 240, Name: "S9"},
		},
	}
}

// DefaultRebalancePolicy returns the Experiment 7 rebalancer knobs: the
// membership defaults with the pressure floor raised to crowd level, so
// the tree only moves for the flash crowd itself, not for the small
// imbalances of the warm-up phase.
func DefaultRebalancePolicy() scenario.RebalanceSpec {
	return scenario.RebalanceSpec{Enabled: true, MinLoad: 30}
}

// MembershipRuns is Experiment 7: the experiment 3 configuration over
// a flash-crowd workload with scripted churn, first with the tree static
// (joins and leaves happen, but subtrees never move), then with the
// load-driven rebalancer on. Everything else — seed, workload, GA knobs,
// churn schedule — is held identical, so any delta is the rebalancer's.
//
// The stream is the case-study mix arriving as a flash crowd — a 0.5 /s
// baseline ramping to 5 /s over a minute and holding for 150 s, ten
// times the sustained load — under slightly tightened deadlines. The
// crowd hits one region: every request enters through the S3/S4
// branches, far from where the powerful joiners attached. A static tree
// reaches the new capacity only by climbing through the head and
// descending the far side hop by hop; the dynamic tree re-homes the hot
// branch next to it. The churning runs are where the membership
// invariants earn their keep: no request lost or run twice across a
// leave-drain, no work landing on a departed resource, every re-home
// atomic.
func (p Params) MembershipRuns(churn scenario.ChurnSpec, rb scenario.RebalanceSpec) []Run {
	off := p.caseStudy(Exp7)
	off.Name = "exp7-static"
	off.Arrivals = scenario.ArrivalSpec{
		Process: "flashcrowd", Count: p.Requests,
		BaseRate: 0.5, PeakRate: 5, RampStart: 120, RampDuration: 60, Hold: 150,
	}
	off.DeadlineScale = 0.9
	off.EntryAgents = []string{"S3", "S4", "S7", "S8", "S9", "S10"}
	off.AdvertTTL = 3 * agent.DefaultPullPeriod
	static := churn
	static.Rebalance = nil
	off.Churn = &static
	on := off
	on.Name = "exp7-dynamic"
	rb.Enabled = true
	churn.Rebalance = &rb
	on.Churn = &churn
	return []Run{
		{Label: "exp7 static", Setup: Exp7, Spec: off},
		{Label: "exp7 dynamic", Setup: Exp7, Spec: on},
	}
}

// FormatMembership renders the Experiment 7 report over MembershipRuns'
// outcomes: the churn schedule, the membership bookkeeping, and ε/υ/β
// plus the deadline-hit rate with the tree static against dynamic,
// followed by the dynamic run's audit verdict when withAudit is set.
func FormatMembership(outs []Outcome, withAudit bool) string {
	static, d := outs[0], outs[1]
	var b strings.Builder
	b.WriteString("Experiment 7: dynamic hierarchy under churn and flash crowd\n\n")
	b.WriteString("Churn schedule:\n")
	for _, j := range d.Spec.Churn.Joins {
		fmt.Fprintf(&b, "  t=%-6g join  %s (%s x%d) under %s\n", j.Time, j.Name, j.Hardware, j.Nodes, j.Parent)
	}
	for _, l := range d.Spec.Churn.Leaves {
		fmt.Fprintf(&b, "  t=%-6g leave %s (queue drained, subtree re-homed)\n", l.Time, l.Name)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "Requests submitted:    %d\n", d.Requests)
	fmt.Fprintf(&b, "Tasks completed:       %d (static) / %d (dynamic)\n", len(static.Records), len(d.Records))
	fmt.Fprintf(&b, "Membership activity:   %d joins, %d leaves, %d tasks drained, %d rehome moves\n",
		d.Joins, d.Leaves, d.Drained, d.Moves)
	b.WriteString("\n")

	formatTotals(&b, "static", "dynamic", static, d, true, withAudit)
	return b.String()
}
