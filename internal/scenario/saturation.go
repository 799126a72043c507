package scenario

import (
	"fmt"
	"strings"
)

// The saturation finder measures a topology's capacity: the arrival rate
// at which the grid-wide advance time ε crosses zero — below it most
// deadlines are met with time to spare, above it the grid can no longer
// keep up (Savvas & Kechadi's point that scheduler behaviour must be
// measured *past* saturation, not at one operating point). ε(rate) is
// monotone in expectation but locally noisy (each probe is one finite
// run), so the search brackets the crossing with doubling/halving and
// then bisects.

// SaturationProbe records one evaluated rate.
type SaturationProbe struct {
	Rate    float64 `json:"rate"`
	Epsilon float64 `json:"eps_s"`
	HitRate float64 `json:"hit_rate"`
}

// SaturationResult is the outcome of a capacity search.
type SaturationResult struct {
	Scenario string  `json:"scenario"`
	Capacity float64 `json:"capacity_rate"` // requests/s at the ε zero-crossing (midpoint of the final bracket)
	Lo       float64 `json:"lo_rate"`       // highest probed rate with ε > 0
	Hi       float64 `json:"hi_rate"`       // lowest probed rate with ε ≤ 0

	Probes []SaturationProbe `json:"probes"`
}

// FindSaturation binary-searches the arrival rate at which the
// scenario's ε crosses zero, holding everything else (topology, request
// count, mix, seed) fixed. tol is the relative width of the final
// bracket (default 0.05 when ≤ 0). All probes reuse the scenario seed:
// the request bodies (apps, targets, deadlines) are then identical
// across probes — only the timeline compresses — so the search bisects
// load, not workload luck.
func FindSaturation(spec Spec, opt RunOptions, tol float64) (SaturationResult, error) {
	if err := spec.Validate(); err != nil {
		return SaturationResult{}, err
	}
	if tol <= 0 {
		tol = 0.05
	}
	rate, err := spec.Arrivals.MeanRate()
	if err != nil {
		return SaturationResult{}, err
	}

	out := SaturationResult{Scenario: spec.Name}
	probe := func(r float64) (float64, error) {
		pt, err := apply(spec, AxisRate, r)
		if err != nil {
			return 0, err
		}
		res, err := Run(pt, opt)
		if err != nil {
			return 0, err
		}
		if !res.AuditOK {
			return 0, fmt.Errorf("scenario: saturation probe at rate %g failed its audit: %s", r, res.AuditSummary)
		}
		out.Probes = append(out.Probes, SaturationProbe{Rate: r, Epsilon: res.Epsilon, HitRate: res.HitRate})
		return res.Epsilon, nil
	}

	// Bracket the crossing: grow or shrink the rate geometrically until
	// one side of the sign change is on each end.
	eps, err := probe(rate)
	if err != nil {
		return SaturationResult{}, err
	}
	var lo, hi float64 // lo: ε > 0 (under capacity), hi: ε ≤ 0 (over)
	const maxBracket = 20
	if eps > 0 {
		lo = rate
		for i := 0; ; i++ {
			if i == maxBracket {
				return SaturationResult{}, fmt.Errorf("scenario: ε still positive at rate %g — no saturation within %d doublings", rate, maxBracket)
			}
			rate *= 2
			if eps, err = probe(rate); err != nil {
				return SaturationResult{}, err
			}
			if eps <= 0 {
				hi = rate
				break
			}
			lo = rate
		}
	} else {
		hi = rate
		for i := 0; ; i++ {
			if i == maxBracket {
				return SaturationResult{}, fmt.Errorf("scenario: ε non-positive even at rate %g — the grid never catches up", rate)
			}
			rate /= 2
			if eps, err = probe(rate); err != nil {
				return SaturationResult{}, err
			}
			if eps > 0 {
				lo = rate
				break
			}
			hi = rate
		}
	}

	for hi-lo > tol*lo {
		mid := (lo + hi) / 2
		if eps, err = probe(mid); err != nil {
			return SaturationResult{}, err
		}
		if eps > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	out.Lo, out.Hi = lo, hi
	out.Capacity = (lo + hi) / 2
	return out, nil
}

// FormatSaturation renders the search for the terminal.
func FormatSaturation(r SaturationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Saturation search for %s\n\n", r.Scenario)
	fmt.Fprintf(&b, "%10s %10s %9s\n", "rate (/s)", "eps (s)", "hit (%)")
	for _, p := range r.Probes {
		fmt.Fprintf(&b, "%10.3f %10.1f %9.1f\n", p.Rate, p.Epsilon, p.HitRate*100)
	}
	fmt.Fprintf(&b, "\ncapacity ≈ %.3f requests/s (ε crosses zero in [%.3f, %.3f])\n", r.Capacity, r.Lo, r.Hi)
	return b.String()
}
