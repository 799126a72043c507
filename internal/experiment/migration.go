package experiment

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// Exp5 is the proactive-migration configuration: experiment 3 (GA +
// agent discovery) run against a degraded — not crashed — resource,
// with the drift-driven migration policy deciding whether queued work
// moves off it. The paper's agents only react to failure; this
// experiment measures acting on performance drift.
var Exp5 = Setup{ID: 5, Policy: core.PolicyGA, UseAgents: true, Label: "GA + agents + degraded node + migration"}

// ScaledDegradedPlan returns the Experiment 5 fault schedule scaled to
// a request phase of the given length: S2 — the second-most powerful
// resource, which eq. 10 matchmaking loads heavily — runs its tasks at
// three times the predicted execution time through the middle half of
// the phase. No agent dies and no link drops: the PACE predictions
// steering dispatch stay optimistic while the resource silently falls
// behind, which is exactly the blind spot the migration policy covers.
func ScaledDegradedPlan(phase float64) scenario.FaultSpec {
	at := func(f float64) float64 { return phase * f }
	return scenario.FaultSpec{
		Seed: 2003,
		Events: []scenario.FaultEvent{
			{At: at(0.25), Kind: string(fault.Degrade), Agent: "S2", Factor: 3},
			{At: at(0.75), Kind: string(fault.Restore), Agent: "S2"},
		},
	}
}

// DefaultMigrationPolicy returns the Experiment 5 policy: check every
// advert period, trigger after two consecutive checks at 50% drift.
func DefaultMigrationPolicy() scenario.MigrationSpec {
	return scenario.MigrationSpec{Enabled: true}
}

// MigrationRuns is Experiment 5: the experiment 3 configuration over
// the case-study workload with a degraded-node fault plan, first with
// migration off (the baseline a fault-blind grid delivers), then with
// the drift-driven policy on. Everything else — seed, workload, GA
// knobs, fault schedule — is held identical, so any delta is the
// policy's. The migrated run is where the chain invariants earn their
// keep: every offer → withdraw → re-dispatch must net to exactly one
// execution, never zero and never two.
func (p Params) MigrationRuns(faults scenario.FaultSpec, pol scenario.MigrationSpec) []Run {
	off := p.caseStudy(Exp5)
	off.Name = "exp5-migration-off"
	off.Faults = &faults
	off.AdvertTTL = 3 * agent.DefaultPullPeriod
	on := off
	on.Name = "exp5-migration-on"
	pol.Enabled = true
	on.Migration = &pol
	return []Run{
		{Label: "exp5 degraded", Setup: Exp5, Spec: off},
		{Label: "exp5 migrated", Setup: Exp5, Spec: on},
	}
}

// FormatMigration renders the Experiment 5 report over MigrationRuns'
// outcomes: the degradation schedule, the migration bookkeeping, and
// ε/υ/β plus the deadline-hit rate with the policy off against on,
// followed by the migrated run's audit verdict when withAudit is set.
func FormatMigration(outs []Outcome, withAudit bool) string {
	degraded, m := outs[0], outs[1]
	var b strings.Builder
	b.WriteString("Experiment 5: proactive migration off a degraded node\n\n")
	b.WriteString("Degradation schedule:\n")
	b.WriteString(m.Spec.FaultPlan().String())
	b.WriteString("\n")

	fmt.Fprintf(&b, "Requests submitted:    %d\n", m.Requests)
	fmt.Fprintf(&b, "Tasks completed:       %d (off) / %d (on)\n", len(degraded.Records), len(m.Records))
	fmt.Fprintf(&b, "Drift checks breached: %d of %d\n", m.MigrateBreaches, m.MigrateChecks)
	fmt.Fprintf(&b, "Tasks offered:         %d (accepted %d, rejected %d)\n", m.MigrateOffers, m.MigrateAccepts, m.MigrateRejects)
	b.WriteString("\n")

	formatTotals(&b, "mig off", "mig on", degraded, m, true, withAudit)
	return b.String()
}
