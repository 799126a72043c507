package experiment

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
)

// Experiment 6 is the advance-reservation admission study: the §4.1
// case-study workload (experiment 3's GA + agent-discovery
// configuration) with a growing share of the request stream diverted to
// advance reservations. Each reserved request books a guaranteed-start
// window through the two-phase shop → hold → confirm path; everything
// else stays best-effort. The study reads off the trade the grid makes
// at each share: the guarantee hit rate the reserved class obtains
// against the ε degradation the blocked windows impose on the
// best-effort class.

// DefaultReservationShares is the share axis of the admission study.
func DefaultReservationShares() []float64 { return []float64{0, 0.1, 0.2, 0.3} }

// DefaultReservationShape is the reservation each diverted request asks
// for: two nodes for 120 s starting 300 s out, with admission refused
// once the granted window would slip more than 600 s past the request.
func DefaultReservationShape() scenario.ReservationSpec {
	return scenario.ReservationSpec{Lead: 300, Duration: 120, Nodes: 2, Parts: 1, MaxSlip: 600}
}

// ReservationRuns is Experiment 6 over the given shares: experiment 3
// with each share of the request stream diverted to advance reservations
// of the default shape. The share-0 run is the untouched experiment-3
// workload and anchors the degradation deltas.
func (p Params) ReservationRuns(shares []float64) []Run {
	runs := make([]Run, len(shares))
	for i, share := range shares {
		spec := p.caseStudy(Configs[2])
		spec.Name = fmt.Sprintf("fig7-reserved-%g", share)
		shape := DefaultReservationShape()
		shape.Share = share
		spec.Reservations = &shape
		runs[i] = Run{Label: fmt.Sprintf("exp6 share=%g", share), Setup: Configs[2], Spec: spec}
	}
	return runs
}

// BestEffort returns the §3.3 ε, υ and β of the run's best-effort
// class; without a confirmed reservation that class is the whole run.
func (o Outcome) BestEffort() (eps, ups, beta float64) {
	if o.ResvConfirmed == 0 {
		return o.Epsilon, o.Upsilon, o.Beta
	}
	return o.BestEffortEpsilon, o.BestEffortUpsilon, o.BestEffortBeta
}

// FormatReservation renders the Experiment 6 report over
// ReservationRuns' outcomes: per share, the admission bookkeeping, the
// guarantee the reserved class got, and the best-effort class's ε/υ/β
// next to the share-0 baseline.
func FormatReservation(outs []Outcome) string {
	var b strings.Builder
	b.WriteString("Experiment 6: advance-reservation admission study\n\n")
	fmt.Fprintf(&b, "%8s %6s %6s %6s %6s %10s %9s %9s %9s %10s\n",
		"share", "resv", "conf", "rej", "exp", "guar-hit", "be-eps/s", "be-ups/%", "be-beta/%", "hit-rate")
	for _, r := range outs {
		beEps, beUps, beBeta := r.BestEffort()
		guar := "-"
		if r.ResvConfirmed > 0 {
			guar = fmt.Sprintf("%.1f %%", r.GuaranteeHitRate*100)
		}
		fmt.Fprintf(&b, "%7.0f%% %6d %6d %6d %6d %10s %9.1f %9.1f %9.1f %9.1f %%\n",
			r.Spec.Reservations.Share*100, r.ResvRequested, r.ResvConfirmed, r.ResvRejected, r.ResvExpired,
			guar, beEps, beUps, beBeta, r.HitRate*100)
	}
	if len(outs) > 1 {
		first, last := outs[0], outs[len(outs)-1]
		lastEps, _, _ := last.BestEffort()
		fmt.Fprintf(&b, "\nBest-effort ε moves %+.1f s as the reserved share grows %g%% → %g%%.\n",
			lastEps-first.Epsilon, first.Spec.Reservations.Share*100, last.Spec.Reservations.Share*100)
	}
	return b.String()
}
