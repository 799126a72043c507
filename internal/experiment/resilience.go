package experiment

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// Exp4 is the resilience configuration: experiment 3 (GA + agent
// discovery) re-run under a deterministic fault schedule. It extends the
// paper's Table 2, which never kills an agent.
var Exp4 = Setup{ID: 4, Policy: core.PolicyGA, UseAgents: true, Label: "GA + agents + faults"}

// ScaledFaultPlan returns the Experiment 4 fault schedule scaled to a
// request phase of the given length (seconds): three agents crash and
// recover at staggered points of the phase — S2 (a powerful resource
// that attracts many dispatches), S7 (a mid-tree Ultra 5) and S10 (a
// leaf-ish Ultra 1) — and the S1-S4 link partitions briefly while S10
// is still down. Crash windows overlap, so discovery must route around
// two dead agents at once.
func ScaledFaultPlan(phase float64) scenario.FaultSpec {
	at := func(f float64) float64 { return phase * f }
	return scenario.FaultSpec{
		Seed: 2003,
		Events: []scenario.FaultEvent{
			{At: at(0.20), Kind: string(fault.Crash), Agent: "S2"},
			{At: at(0.40), Kind: string(fault.Recover), Agent: "S2"},
			{At: at(0.30), Kind: string(fault.Crash), Agent: "S7"},
			{At: at(0.55), Kind: string(fault.Recover), Agent: "S7"},
			{At: at(0.50), Kind: string(fault.Crash), Agent: "S10"},
			{At: at(0.75), Kind: string(fault.Recover), Agent: "S10"},
			{At: at(0.60), Kind: string(fault.Cut), A: "S1", B: "S4"},
			{At: at(0.70), Kind: string(fault.Heal), A: "S1", B: "S4"},
		},
	}
}

// ResilienceRuns is Experiment 4: the experiment 3 configuration over
// the case-study workload, first fault-free (the baseline), then with
// the fault plan injected. The faulted grid gets an advertisement TTL of
// three pull periods so dead resources stop attracting dispatches once
// their adverts go stale. The faulted run is where conservation earns
// its keep: crashes re-dispatch pending tasks and lose unrescuable ones,
// and every one of those must still net out to one terminal per request.
func (p Params) ResilienceRuns(faults scenario.FaultSpec) []Run {
	faulted := p.caseStudy(Exp4)
	faulted.Name = "exp4-faulted"
	faulted.Faults = &faults
	faulted.AdvertTTL = 3 * agent.DefaultPullPeriod
	return []Run{
		{Label: "exp3 baseline", Setup: Configs[2], Spec: p.caseStudy(Configs[2])},
		{Label: "exp4 faulted", Setup: Exp4, Spec: faulted},
	}
}

// FormatResilience renders the Experiment 4 report over ResilienceRuns'
// outcomes: the fault schedule, the recovery bookkeeping, and the
// grid-level ε/υ/β of the faulted run against the fault-free baseline,
// followed by the faulted run's audit verdict when withAudit is set.
func FormatResilience(outs []Outcome, withAudit bool) string {
	baseline, faulted := outs[0], outs[1]
	var b strings.Builder
	b.WriteString("Experiment 4: resilience under agent failures\n\n")
	b.WriteString("Fault schedule:\n")
	b.WriteString(faulted.Spec.FaultPlan().String())
	b.WriteString("\n")

	st := faulted.Fault
	fmt.Fprintf(&b, "Requests submitted:    %d\n", faulted.Requests)
	fmt.Fprintf(&b, "Tasks completed:       %d\n", len(faulted.Records))
	fmt.Fprintf(&b, "Agent crashes:         %d (recoveries: %d)\n", st.Crashes, st.Recoveries)
	fmt.Fprintf(&b, "Tasks re-dispatched:   %d\n", st.Redispatched)
	fmt.Fprintf(&b, "Arrivals rerouted:     %d\n", st.Rerouted)
	fmt.Fprintf(&b, "Tasks lost:            %d\n", st.Lost)
	b.WriteString("\n")

	formatTotals(&b, "exp 3", "exp 4", baseline, faulted, false, withAudit)
	return b.String()
}
