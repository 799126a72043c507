// Package telemetry is the grid's metrics subsystem: a dependency-free
// registry of lock-free counters, gauges and log-bucketed histograms, a
// virtual-time series sampler, and Prometheus/JSON exposition. It is the
// live counterpart of internal/metrics — metrics computes the §3.3 report
// over *finished* runs, telemetry observes the daemons and simulations
// *while they run* (the monitoring-alongside-scheduling argument of the
// integrated-framework line of work, and GridSim's built-in statistics
// recording).
//
// The central contract is zero overhead when disabled: hot paths hold
// instrument pointers (*Counter, *Gauge, *Histogram) resolved once at
// setup, every instrument method is nil-safe, and a nil registry hands
// out nil instruments — so an uninstrumented run pays one predictable
// branch per call site, no allocations, no atomics. The PR 2 fast paths
// (schedule building, GA cost evaluation, pace cache hits) are guarded by
// benchmarks against exactly this configuration.
//
// Everything registered is updated with atomic operations only, so a
// registry can be scraped (Snapshot, the /metrics handler) from any
// goroutine while the instrumented code runs — no locks are shared with
// the hot paths. State that is not atomic (scheduler queues, agent
// caches) is observed either through gauges the owning code sets from
// inside its own synchronisation, or through Sampler probes that run on
// the single-threaded simulator goroutine.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use, all methods are lock-free, and every method no-ops on a nil
// receiver: code instruments itself unconditionally and the caller
// decides at setup time whether a real counter is behind the pointer.
// A Counter is not padded: no measurement has shown one contended
// enough to pay for a cache line of its own.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free float64 gauge. The zero value is ready to use and
// all methods no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add adds delta (compare-and-swap loop; deltas from concurrent writers
// all land).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFrom(old)+delta)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFrom(g.bits.Load())
}

// Collector is a callback run at snapshot time to contribute computed
// values (cache hit ratios, policy statistics) without putting any cost
// on the hot path that produces them. Collectors must only read state
// that is safe to read from the scraping goroutine — atomic counters and
// immutable configuration.
type Collector func(set func(name string, value float64))

// Registry is a named set of instruments. A nil *Registry is the
// disabled configuration: it hands out nil instruments and empty
// snapshots, so instrumented code never checks for it explicitly.
//
// Instrument lookup takes a lock and may allocate; hot paths resolve
// their instruments once at setup and keep the pointers.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use; nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// RegisterCounter attaches an existing counter under the given name —
// how code that owns its counters (agent stats) exposes them without
// double counting. No-op on a nil registry or nil counter.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterGauge attaches an existing gauge under the given name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}

// Histogram returns the named histogram (default bucket layout),
// creating it on first use; nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a snapshot-time collector.
func (r *Registry) RegisterCollector(fn Collector) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot is a point-in-time copy of every registered value, the input
// to both exposition formats. Collector output lands in Gauges.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument and runs the collectors. Safe to
// call from any goroutine; an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.RUnlock()

	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		snap.Histograms[name] = h.Snapshot()
	}
	for _, fn := range collectors {
		fn(func(name string, v float64) { snap.Gauges[name] = v })
	}
	return snap
}

// Label renders a metric name with label pairs appended in the given
// order: Label("grid_queue_depth", "resource", "S1") is
// `grid_queue_depth{resource="S1"}`. Metric identity is the full
// rendered string; the Prometheus writer re-parses it for bucket
// labels.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a rendered metric name into its base name and the
// inner label list: `a_total{resource="S1"}` -> ("a_total",
// `resource="S1"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// sortedKeys returns the keys of a map[string]V in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
