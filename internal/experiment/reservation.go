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

// ReservationPoint is one admission-study share.
type ReservationPoint struct {
	Share  float64
	Result scenario.Result
}

// reservationSpec is experiment 3 with the given share of the request
// stream diverted to advance reservations of the default shape.
func (p Params) reservationSpec(share float64) scenario.Spec {
	spec := p.caseStudy(Configs[2])
	spec.Name = fmt.Sprintf("fig7-reserved-%g", share)
	shape := DefaultReservationShape()
	shape.Share = share
	spec.Reservations = &shape
	return spec
}

// RunReservationStudy executes Experiment 6 over the given shares. Each
// point is a full audited scenario run of the Fig. 7 case study; the
// share-0 point is the untouched experiment-3 workload and anchors the
// degradation deltas.
func RunReservationStudy(p Params, shares []float64) ([]ReservationPoint, error) {
	opt := p.options()
	opt.Trace = nil // the trace is experiment 3's
	pts := make([]ReservationPoint, 0, len(shares))
	for _, share := range shares {
		res, err := scenario.Run(p.reservationSpec(share), opt)
		if err != nil {
			return nil, fmt.Errorf("experiment 6 (share %g): %w", share, err)
		}
		pts = append(pts, ReservationPoint{Share: share, Result: res})
	}
	return pts, nil
}

// FormatReservation renders the Experiment 6 report: per share, the
// admission bookkeeping, the guarantee the reserved class got, and the
// best-effort class's ε/υ/β next to the share-0 baseline.
func FormatReservation(pts []ReservationPoint) string {
	var b strings.Builder
	b.WriteString("Experiment 6: advance-reservation admission study\n\n")
	fmt.Fprintf(&b, "%8s %6s %6s %6s %6s %10s %9s %9s %9s %10s\n",
		"share", "resv", "conf", "rej", "exp", "guar-hit", "be-eps/s", "be-ups/%", "be-beta/%", "hit-rate")
	for _, p := range pts {
		r := p.Result
		// The best-effort class of a share-0 run is the whole run.
		beEps, beUps, beBeta := r.BestEffortEpsilon, r.BestEffortUpsilon, r.BestEffortBeta
		if r.ResvConfirmed == 0 {
			beEps, beUps, beBeta = r.Epsilon, r.Upsilon, r.Beta
		}
		guar := "-"
		if r.ResvConfirmed > 0 {
			guar = fmt.Sprintf("%.1f %%", r.GuaranteeHitRate*100)
		}
		fmt.Fprintf(&b, "%7.0f%% %6d %6d %6d %6d %10s %9.1f %9.1f %9.1f %9.1f %%\n",
			p.Share*100, r.ResvRequested, r.ResvConfirmed, r.ResvRejected, r.ResvExpired,
			guar, beEps, beUps, beBeta, r.HitRate*100)
	}
	if len(pts) > 1 {
		first, last := pts[0], pts[len(pts)-1]
		firstEps := first.Result.Epsilon
		lastEps := last.Result.BestEffortEpsilon
		if last.Result.ResvConfirmed == 0 {
			lastEps = last.Result.Epsilon
		}
		fmt.Fprintf(&b, "\nBest-effort ε moves %+.1f s as the reserved share grows %g%% → %g%%.\n",
			lastEps-firstEps, first.Share*100, last.Share*100)
	}
	return b.String()
}
