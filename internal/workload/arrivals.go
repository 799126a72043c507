package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ArrivalProcess describes how request arrival times are produced. The
// §4.1 case study sends requests at fixed one-second intervals, but a
// grid that "handles as many scenarios as you can imagine" needs open
// workloads too: Poisson streams, flash-crowd ramps and recorded
// traces. Each process draws only from the RNG it is
// handed — Generate gives arrivals their own stream, derived from the
// workload seed but disjoint from the app/agent/deadline stream, so
// switching processes never perturbs what each request asks for.
type ArrivalProcess interface {
	// Times produces up to max arrival times in non-decreasing order,
	// starting from virtual time zero. Returning fewer than max means
	// the process is exhausted (e.g. a trace ran out); Generate then
	// emits that many requests.
	Times(rng *sim.RNG, max int) []float64
	// Validate reports a configuration error before any generation.
	Validate() error
	// String names the process and its parameters for reports.
	String() string
}

// FixedInterval is the paper's arrival process: request i arrives at
// exactly i×Interval seconds. It consumes no randomness.
type FixedInterval struct {
	Interval float64
}

// Times implements ArrivalProcess.
func (f FixedInterval) Times(_ *sim.RNG, max int) []float64 {
	out := make([]float64, max)
	for i := range out {
		out[i] = float64(i) * f.Interval
	}
	return out
}

// Validate implements ArrivalProcess.
func (f FixedInterval) Validate() error {
	if f.Interval <= 0 {
		return fmt.Errorf("workload: non-positive interval %g", f.Interval)
	}
	return nil
}

func (f FixedInterval) String() string {
	return fmt.Sprintf("fixed(interval=%gs)", f.Interval)
}

// Poisson is a homogeneous Poisson process: independent exponential
// inter-arrival times with mean 1/Rate seconds.
type Poisson struct {
	Rate float64 // arrivals per virtual second
}

// Times implements ArrivalProcess.
func (p Poisson) Times(rng *sim.RNG, max int) []float64 {
	out := make([]float64, max)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / p.Rate
		out[i] = t
	}
	return out
}

// Validate implements ArrivalProcess.
func (p Poisson) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("workload: poisson rate %g must be positive", p.Rate)
	}
	return nil
}

func (p Poisson) String() string {
	return fmt.Sprintf("poisson(rate=%g/s)", p.Rate)
}

// FlashCrowd is a non-homogeneous Poisson process modelling a sudden
// audience spike: the rate sits at BaseRate, ramps linearly to PeakRate
// over [RampStart, RampStart+RampDuration], holds the peak for Hold
// seconds, then ramps back down over another RampDuration. Sampled by
// thinning: candidates are drawn at the peak rate and accepted with
// probability rate(t)/peak, which is exact for any bounded rate
// function.
type FlashCrowd struct {
	BaseRate     float64 // steady-state arrivals per second
	PeakRate     float64 // arrivals per second at the top of the crowd
	RampStart    float64 // virtual time the ramp begins
	RampDuration float64 // seconds to climb from base to peak (and back)
	Hold         float64 // seconds the peak is held
}

// RateAt returns the instantaneous arrival rate at virtual time t.
func (f FlashCrowd) RateAt(t float64) float64 {
	up0, up1 := f.RampStart, f.RampStart+f.RampDuration
	down0 := up1 + f.Hold
	down1 := down0 + f.RampDuration
	switch {
	case t < up0 || t >= down1:
		return f.BaseRate
	case t < up1:
		return f.BaseRate + (f.PeakRate-f.BaseRate)*(t-up0)/f.RampDuration
	case t < down0:
		return f.PeakRate
	default:
		return f.PeakRate - (f.PeakRate-f.BaseRate)*(t-down0)/f.RampDuration
	}
}

// Times implements ArrivalProcess.
func (f FlashCrowd) Times(rng *sim.RNG, max int) []float64 {
	peak := math.Max(f.BaseRate, f.PeakRate)
	out := make([]float64, 0, max)
	t := 0.0
	for len(out) < max {
		t += rng.ExpFloat64() / peak
		if rng.Float64()*peak <= f.RateAt(t) {
			out = append(out, t)
		}
	}
	return out
}

// Validate implements ArrivalProcess.
func (f FlashCrowd) Validate() error {
	if f.BaseRate <= 0 {
		return fmt.Errorf("workload: flash-crowd base rate %g must be positive", f.BaseRate)
	}
	if f.PeakRate < f.BaseRate {
		return fmt.Errorf("workload: flash-crowd peak rate %g below base rate %g", f.PeakRate, f.BaseRate)
	}
	if f.RampStart < 0 || f.RampDuration <= 0 || f.Hold < 0 {
		return fmt.Errorf("workload: flash-crowd timing (start=%g, ramp=%g, hold=%g) invalid", f.RampStart, f.RampDuration, f.Hold)
	}
	return nil
}

func (f FlashCrowd) String() string {
	return fmt.Sprintf("flashcrowd(base=%g/s, peak=%g/s at t=%g+%g hold %g)",
		f.BaseRate, f.PeakRate, f.RampStart, f.RampDuration, f.Hold)
}

// TraceReplay replays recorded arrival times verbatim — the bridge from
// real request logs to the simulator. The trace may end before max
// requests; Generate then emits a shorter stream.
type TraceReplay struct {
	At []float64 // non-decreasing arrival times, seconds
}

// Times implements ArrivalProcess.
func (tr TraceReplay) Times(_ *sim.RNG, max int) []float64 {
	n := len(tr.At)
	if max < n {
		n = max
	}
	out := make([]float64, n)
	copy(out, tr.At[:n])
	return out
}

// Validate implements ArrivalProcess.
func (tr TraceReplay) Validate() error {
	if len(tr.At) == 0 {
		return fmt.Errorf("workload: empty arrival trace")
	}
	prev := math.Inf(-1)
	for i, t := range tr.At {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("workload: trace arrival %d at %g, want a finite non-negative time", i, t)
		}
		if t < prev {
			return fmt.Errorf("workload: trace arrival %d at %g before predecessor %g", i, t, prev)
		}
		prev = t
	}
	return nil
}

func (tr TraceReplay) String() string {
	return fmt.Sprintf("trace(%d arrivals over %gs)", len(tr.At), tr.At[len(tr.At)-1])
}
