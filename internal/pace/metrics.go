package pace

import "repro/internal/telemetry"

// RegisterMetrics exposes the engine's evaluation statistics on a
// telemetry registry as a snapshot-time collector. Predict is not
// touched at all: the collector calls Stats() and CacheLen(), the two
// engine reads that are safe from another goroutine, only when the
// registry is scraped, so an instrumented engine costs exactly as much
// as an uninstrumented one between scrapes.
//
// kv are optional label pairs (e.g. "resource", "S1") distinguishing
// per-node engines in a farm; a process-wide shared engine registers
// with none.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, kv ...string) {
	if reg == nil || e == nil {
		return
	}
	l := func(name string) string { return telemetry.Label(name, kv...) }
	reg.RegisterCollector(func(set func(string, float64)) {
		s := e.Stats()
		set(l("pace_evaluations"), float64(s.Evaluations))
		set(l("pace_cache_hits"), float64(s.CacheHits))
		set(l("pace_cache_misses"), float64(s.CacheMisses))
		set(l("pace_cache_len"), float64(e.CacheLen()))
		if total := s.CacheHits + s.CacheMisses; total > 0 {
			set(l("pace_cache_hit_ratio"), float64(s.CacheHits)/float64(total))
		} else {
			set(l("pace_cache_hit_ratio"), 0)
		}
	})
}
