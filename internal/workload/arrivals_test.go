package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestFixedIntervalMatchesLegacyStream(t *testing.T) {
	// The refactor must be invisible to the §4.1 case study: a spec with
	// no Arrivals and one with an explicit FixedInterval produce the
	// identical stream, and the stream keeps the i×Interval timeline.
	implicit := CaseStudySpec(2003, agents())
	explicit := implicit
	explicit.Arrivals = FixedInterval{Interval: implicit.Interval}

	a, err := Generate(implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 600 {
		t.Fatalf("lengths %d vs %d, want 600", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].At != float64(i) {
			t.Fatalf("request %d at %v, want %d", i, a[i].At, i)
		}
	}
}

func TestArrivalProcessDoesNotPerturbBodyStream(t *testing.T) {
	// Two specs differing only in the arrival process must ask for the
	// same work: same apps, same target agents, same relative deadlines.
	base := CaseStudySpec(7, agents())
	base.Count = 200
	poisson := base
	poisson.Arrivals = Poisson{Rate: 3}

	a, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(poisson)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].AppName != b[i].AppName || a[i].AgentName != b[i].AgentName || a[i].DeadlineRel != b[i].DeadlineRel {
			t.Fatalf("request %d body differs across arrival processes: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoissonInterArrivals(t *testing.T) {
	rng := sim.NewRNG(11)
	const rate, n = 4.0, 50000
	times := Poisson{Rate: rate}.Times(rng, n)
	if len(times) != n {
		t.Fatalf("%d times, want %d", len(times), n)
	}
	prev := 0.0
	var sum float64
	for i, at := range times {
		if at <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, at, prev)
		}
		sum += at - prev
		prev = at
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("mean inter-arrival %v, want ~%v", mean, 1/rate)
	}
}

func TestFlashCrowdConcentratesArrivals(t *testing.T) {
	f := FlashCrowd{BaseRate: 1, PeakRate: 20, RampStart: 100, RampDuration: 20, Hold: 60}
	if got := f.RateAt(0); got != 1 {
		t.Fatalf("rate before ramp = %v, want 1", got)
	}
	if got := f.RateAt(130); got != 20 {
		t.Fatalf("rate at peak = %v, want 20", got)
	}
	if got := f.RateAt(110); math.Abs(got-10.5) > 1e-9 {
		t.Fatalf("rate mid-ramp = %v, want 10.5", got)
	}
	if got := f.RateAt(500); got != 1 {
		t.Fatalf("rate after crowd = %v, want 1", got)
	}

	rng := sim.NewRNG(21)
	times := f.Times(rng, 3000)
	inCrowd, before := 0, 0
	for _, at := range times {
		switch {
		case at >= 100 && at < 200:
			inCrowd++
		case at < 100:
			before++
		}
	}
	// 100 s of pre-crowd base traffic ≈ 100 arrivals; the 100 s crowd
	// window carries ~10–20× that.
	if before < 60 || before > 150 {
		t.Fatalf("%d arrivals before the crowd, want ~100", before)
	}
	if inCrowd < 10*before {
		t.Fatalf("crowd window holds %d arrivals vs %d before — spike not visible", inCrowd, before)
	}
}

func TestTraceReplay(t *testing.T) {
	tr := TraceReplay{At: []float64{0, 0.5, 0.5, 2, 7}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := tr.Times(nil, 10)
	if len(got) != 5 {
		t.Fatalf("trace replay produced %d times, want all 5", len(got))
	}
	if got2 := tr.Times(nil, 3); len(got2) != 3 || got2[2] != 0.5 {
		t.Fatalf("truncated replay = %v, want first 3", got2)
	}

	spec := CaseStudySpec(1, agents())
	spec.Count = 10
	spec.Arrivals = tr
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5 {
		t.Fatalf("generated %d requests from a 5-arrival trace, want 5", len(reqs))
	}
	if reqs[4].At != 7 {
		t.Fatalf("last request at %v, want 7", reqs[4].At)
	}

	bad := TraceReplay{At: []float64{1, 0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("descending trace validated")
	}
	// A non-finite arrival once reached the simulator: NaN as a request
	// with no processors, +Inf as a run that exhausted its event budget.
	for _, at := range [][]float64{{0, math.NaN()}, {math.NaN(), 1}, {0, math.Inf(1)}, {math.Inf(-1), 0}, {-1}} {
		if err := (TraceReplay{At: at}).Validate(); err == nil {
			t.Errorf("trace %v validated", at)
		}
	}
}

func TestArrivalValidation(t *testing.T) {
	cases := []ArrivalProcess{
		FixedInterval{Interval: 0},
		Poisson{Rate: 0},
		FlashCrowd{BaseRate: 2, PeakRate: 1, RampDuration: 1},
		FlashCrowd{BaseRate: 1, PeakRate: 2, RampDuration: 0},
		TraceReplay{},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%v): invalid process validated", i, p)
		}
	}
}

func TestAppWeightsBiasMix(t *testing.T) {
	spec := CaseStudySpec(5, agents())
	spec.Count = 4000
	names := spec.Library.SortedNames()
	heavy, light := names[0], names[1]
	spec.AppWeights = map[string]float64{heavy: 3, light: 1}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarise(reqs)
	if len(s.ByApp) != 2 {
		t.Fatalf("weighted mix drew %d apps, want exactly the 2 weighted ones: %v", len(s.ByApp), s.ByApp)
	}
	ratio := float64(s.ByApp[heavy]) / float64(s.ByApp[light])
	if ratio < 2.6 || ratio > 3.5 {
		t.Fatalf("heavy/light ratio %v, want ~3", ratio)
	}

	spec.AppWeights = map[string]float64{"no-such-app": 1}
	if _, err := Generate(spec); err == nil {
		t.Fatal("unknown app weight accepted")
	}
	spec.AppWeights = map[string]float64{heavy: 0}
	if _, err := Generate(spec); err == nil {
		t.Fatal("zero-total weights accepted")
	}
}

func TestDeadlineScale(t *testing.T) {
	base := CaseStudySpec(9, agents())
	base.Count = 50
	tight := base
	tight.DeadlineScale = 0.5
	a, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tight)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(b[i].DeadlineRel-0.5*a[i].DeadlineRel) > 1e-12 {
			t.Fatalf("request %d: scaled deadline %v, want half of %v", i, b[i].DeadlineRel, a[i].DeadlineRel)
		}
	}
	bad := base
	bad.DeadlineScale = -1
	if _, err := Generate(bad); err == nil {
		t.Fatal("negative deadline scale accepted")
	}
}
