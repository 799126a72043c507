package pace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEnginePredictReferencePlatform(t *testing.T) {
	e := NewEngine()
	lib := CaseStudyLibrary()
	sweep, _ := lib.Lookup("sweep3d")
	v, err := e.Predict(sweep, SGIOrigin2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 25 {
		t.Fatalf("sweep3d on 4 reference procs = %v, want 25", v)
	}
}

func TestEnginePredictScalesByHardwareFactor(t *testing.T) {
	e := NewEngine()
	lib := CaseStudyLibrary()
	fft, _ := lib.Lookup("fft")
	ref, err := e.Predict(fft, SGIOrigin2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.Predict(fft, SunSPARCstation2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref * SunSPARCstation2.Factor; slow != want {
		t.Fatalf("SPARCstation prediction = %v, want %v", slow, want)
	}
}

func TestEngineCacheHitAvoidsReEvaluation(t *testing.T) {
	e := NewEngine()
	lib := CaseStudyLibrary()
	m, _ := lib.Lookup("jacobi")
	for i := 0; i < 10; i++ {
		if _, err := e.Predict(m, SunUltra5, 4); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1 (cache must absorb repeats)", s.Evaluations)
	}
	if s.CacheHits != 9 || s.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 9/1", s.CacheHits, s.CacheMisses)
	}
	if e.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", e.CacheLen())
	}
}

func TestEngineWithoutCacheReEvaluates(t *testing.T) {
	e := NewEngineWithoutCache()
	lib := CaseStudyLibrary()
	m, _ := lib.Lookup("jacobi")
	for i := 0; i < 10; i++ {
		if _, err := e.Predict(m, SunUltra5, 4); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Evaluations != 10 {
		t.Fatalf("evaluations = %d, want 10 without cache", s.Evaluations)
	}
	if e.CacheEnabled() {
		t.Fatal("CacheEnabled() = true for cacheless engine")
	}
	if e.CacheLen() != 0 {
		t.Fatalf("cacheless engine stored %d entries", e.CacheLen())
	}
}

func TestEngineCacheKeyDiscriminates(t *testing.T) {
	e := NewEngine()
	lib := CaseStudyLibrary()
	a, _ := lib.Lookup("fft")
	b, _ := lib.Lookup("cpi")
	_, _ = e.Predict(a, SGIOrigin2000, 4)
	_, _ = e.Predict(a, SunUltra1, 4)
	_, _ = e.Predict(a, SGIOrigin2000, 5)
	_, _ = e.Predict(b, SGIOrigin2000, 4)
	if e.CacheLen() != 4 {
		t.Fatalf("cache holds %d entries, want 4 distinct", e.CacheLen())
	}
}

func TestEnginePredictErrors(t *testing.T) {
	e := NewEngine()
	lib := CaseStudyLibrary()
	m, _ := lib.Lookup("fft")
	if _, err := e.Predict(nil, SGIOrigin2000, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := e.Predict(m, Hardware{}, 1); err == nil {
		t.Error("invalid hardware accepted")
	}
	if _, err := e.Predict(m, Hardware{Name: "x", Factor: -1}, 1); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := e.Predict(m, SGIOrigin2000, 0); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := e.Predict(m, SGIOrigin2000, -3); err == nil {
		t.Error("negative processors accepted")
	}
}

func TestEngineMustPredictPanicsOnError(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("MustPredict with nil model did not panic")
		}
	}()
	e.MustPredict(nil, SGIOrigin2000, 1)
}

func TestEngineResetStats(t *testing.T) {
	e := NewEngine()
	m, _ := CaseStudyLibrary().Lookup("fft")
	_, _ = e.Predict(m, SGIOrigin2000, 1)
	e.ResetStats()
	if s := e.Stats(); s != (EvalStats{}) {
		t.Fatalf("stats after reset = %+v", s)
	}
	// Cache survives the reset.
	if e.CacheLen() != 1 {
		t.Fatalf("cache flushed by ResetStats: %d entries", e.CacheLen())
	}
}

func TestEvalStatsSimulatedCost(t *testing.T) {
	s := EvalStats{Evaluations: 1000}
	if got := s.SimulatedCost(DefaultEvalCost); got != 10 {
		t.Fatalf("SimulatedCost = %v, want 10 (the §2.2 example)", got)
	}
}

// Property: cached and uncached engines always agree.
func TestEngineCacheTransparency(t *testing.T) {
	cached := NewEngine()
	plain := NewEngineWithoutCache()
	lib := CaseStudyLibrary()
	hw := []Hardware{SGIOrigin2000, SunUltra10, SunUltra5, SunUltra1, SunSPARCstation2}
	prop := func(appIdx, hwIdx, nRaw uint8) bool {
		m, _ := lib.Lookup(CaseStudyAppNames[int(appIdx)%len(CaseStudyAppNames)])
		h := hw[int(hwIdx)%len(hw)]
		n := int(nRaw)%16 + 1
		a, err1 := cached.Predict(m, h, n)
		b, err2 := plain.Predict(m, h, n)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareRegistry(t *testing.T) {
	h, ok := LookupHardware("SunUltra10")
	if !ok || h != SunUltra10 {
		t.Fatalf("LookupHardware(SunUltra10) = %v, %v", h, ok)
	}
	if _, ok := LookupHardware("PDP11"); ok {
		t.Fatal("LookupHardware invented a PDP11")
	}
	names := HardwareNames()
	if len(names) != 5 {
		t.Fatalf("HardwareNames = %v", names)
	}
	if names[0] != "SGIOrigin2000" {
		t.Fatalf("fastest platform = %q, want SGIOrigin2000", names[0])
	}
	if names[len(names)-1] != "SunSPARCstation2" {
		t.Fatalf("slowest platform = %q, want SunSPARCstation2", names[len(names)-1])
	}
	// §4.1 ordering: Origin2000 > Ultra10 > Ultra5 > Ultra1 > SPARCstation2.
	prev := 0.0
	for _, n := range names {
		h, _ := LookupHardware(n)
		if h.Factor <= prev {
			t.Fatalf("hardware factors not strictly increasing: %v", names)
		}
		prev = h.Factor
	}
	if err := (Hardware{Name: "ok", Factor: 1}).Valid(); err != nil {
		t.Fatalf("valid hardware rejected: %v", err)
	}
	if err := (Hardware{Factor: 1}).Valid(); err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Fatalf("empty-name hardware accepted: %v", err)
	}
}

// TestEngineFastPathAfterWarmup asserts a warm engine answers from its
// table: after one miss per key, repeated predictions are hits only, and
// the counters stay exact — every call is a hit or a miss, and each miss
// is one evaluation and one memoised entry.
func TestEngineFastPathAfterWarmup(t *testing.T) {
	lib := CaseStudyLibrary()
	m, _ := lib.Lookup("fft")
	engine := NewEngine()
	for n := 1; n <= 16; n++ {
		if _, err := engine.Predict(m, SunUltra1, n); err != nil {
			t.Fatal(err)
		}
	}
	warm := engine.Stats()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		for n := 1; n <= 16; n++ {
			if _, err := engine.Predict(m, SunUltra1, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := engine.Stats()
	if st.Evaluations != warm.Evaluations || st.CacheMisses != warm.CacheMisses {
		t.Errorf("warm engine evaluated again: evals %d -> %d, misses %d -> %d",
			warm.Evaluations, st.Evaluations, warm.CacheMisses, st.CacheMisses)
	}
	if wantHits := warm.CacheHits + rounds*16; st.CacheHits != wantHits {
		t.Errorf("hits = %d, want %d", st.CacheHits, wantHits)
	}
	if calls := uint64((rounds + 1) * 16); st.CacheHits+st.CacheMisses != calls {
		t.Errorf("hits+misses = %d, want the %d calls made", st.CacheHits+st.CacheMisses, calls)
	}
	if st.CacheMisses != st.Evaluations || int(st.Evaluations) != engine.CacheLen() || engine.CacheLen() != 16 {
		t.Errorf("misses = %d, evaluations = %d, cache entries = %d; want 16 of each",
			st.CacheMisses, st.Evaluations, engine.CacheLen())
	}
}

// TestEngineResetStatsKeepsCache mirrors the documented contract with the
// new atomic counters.
func TestEngineResetStatsKeepsCache(t *testing.T) {
	lib := CaseStudyLibrary()
	m, _ := lib.Lookup("cpi")
	engine := NewEngine()
	if _, err := engine.Predict(m, SunUltra5, 4); err != nil {
		t.Fatal(err)
	}
	engine.ResetStats()
	if st := engine.Stats(); st != (EvalStats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	if engine.CacheLen() != 1 {
		t.Fatalf("cache len after reset = %d, want 1", engine.CacheLen())
	}
	if _, err := engine.Predict(m, SunUltra5, 4); err != nil {
		t.Fatal(err)
	}
	if st := engine.Stats(); st.CacheHits != 1 || st.Evaluations != 0 {
		t.Fatalf("post-reset predict should hit the retained cache: %+v", st)
	}
}
