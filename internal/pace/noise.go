package pace

import "repro/internal/sim"

// The paper's test mode assumes PACE predictions are exact (§3.2) and
// names "the impact of the accuracy of the PACE predictive data on grid
// load balancing and scheduling" as future work (§5). NoiseModel
// implements that study: a deterministic multiplicative error applied to
// a task's actual execution time while schedulers keep planning with the
// unperturbed prediction.
//
// The error for a task is a pure function of (seed, task key), so a run
// remains reproducible and the same task sees the same reality regardless
// of which resource executes it.

// NoiseModel perturbs actual execution times relative to predictions.
type NoiseModel struct {
	// Rel is the maximum relative scatter: the unbiased factor is drawn
	// uniformly from [1-Rel, 1+Rel]. Rel 0 reproduces exact test mode.
	// Values >= 1 are clamped so times stay positive.
	Rel float64
	// Bias shifts every actual time multiplicatively: +0.2 means the
	// models are systematically 20% optimistic (real runs take longer
	// than predicted), the damaging direction for deadline scheduling.
	Bias float64
	Seed uint64
}

// Enabled reports whether the model perturbs anything.
func (m NoiseModel) Enabled() bool { return m.Rel != 0 || m.Bias != 0 }

// Factor returns the multiplicative error for the task key.
func (m NoiseModel) Factor(taskKey uint64) float64 {
	rel := m.Rel
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.95 {
		rel = 0.95 // keep actual times strictly positive
	}
	bias := 1 + m.Bias
	if bias < 0.05 {
		bias = 0.05
	}
	if rel == 0 {
		return bias
	}
	// SplitMix64 over (seed, key): deterministic, well mixed.
	z := sim.SplitMix64(m.Seed ^ (taskKey * 0x9e3779b97f4a7c15))
	u := float64(z>>11) / (1 << 53) // uniform [0, 1)
	return bias * (1 - rel + 2*rel*u)
}

// Apply returns the actual execution time for a predicted duration.
func (m NoiseModel) Apply(predicted float64, taskKey uint64) float64 {
	return predicted * m.Factor(taskKey)
}
