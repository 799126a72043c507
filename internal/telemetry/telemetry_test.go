package telemetry

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	// The disabled configuration: nil registry hands out nil instruments
	// and every method is a no-op. Any panic here fails the contract.
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(3)
	r.Gauge("c").Set(2)
	r.Gauge("c").Add(-1)
	r.Histogram("d").Observe(0.5)
	r.RegisterCounter("e", &Counter{})
	r.RegisterGauge("f", &Gauge{})
	r.RegisterCollector(func(set func(string, float64)) { set("x", 1) })

	if v := r.Counter("a").Value(); v != 0 {
		t.Fatalf("nil counter Value = %d", v)
	}
	if v := r.Gauge("c").Value(); v != 0 {
		t.Fatalf("nil gauge Value = %g", v)
	}
	if n := r.Histogram("d").Count(); n != 0 {
		t.Fatalf("nil histogram Count = %d", n)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}

	var s *Sampler
	s.AddProbe("p", func(float64) float64 { return 1 })
	s.Sample(0)
	if got := s.Series(); len(got.Points) != 0 {
		t.Fatalf("nil sampler has points: %+v", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs")
	c2 := r.Counter("reqs")
	if c1 != c2 {
		t.Fatal("Counter not idempotent per name")
	}
	g1, g2 := r.Gauge("depth"), r.Gauge("depth")
	if g1 != g2 {
		t.Fatal("Gauge not idempotent per name")
	}
	h1, h2 := r.Histogram("lat"), r.Histogram("lat")
	if h1 != h2 {
		t.Fatal("Histogram not idempotent per name")
	}
}

func TestSnapshotAndCollector(t *testing.T) {
	r := NewRegistry()
	r.Counter("grid_requests_total").Add(7)
	r.Gauge("queue_depth").Set(3.5)
	r.Histogram("latency_s").Observe(0.25)

	// Attach a pre-existing counter (the agent-stats pattern).
	own := &Counter{}
	own.Add(11)
	r.RegisterCounter("agent_pulls_total", own)

	// Collector computes a derived value at snapshot time.
	r.RegisterCollector(func(set func(string, float64)) { set("pace_hit_ratio", 0.75) })

	snap := r.Snapshot()
	if snap.Counters["grid_requests_total"] != 7 {
		t.Fatalf("counter: %+v", snap.Counters)
	}
	if snap.Counters["agent_pulls_total"] != 11 {
		t.Fatalf("registered counter: %+v", snap.Counters)
	}
	if snap.Gauges["queue_depth"] != 3.5 {
		t.Fatalf("gauge: %+v", snap.Gauges)
	}
	if snap.Gauges["pace_hit_ratio"] != 0.75 {
		t.Fatalf("collector output missing: %+v", snap.Gauges)
	}
	h := snap.Histograms["latency_s"]
	if h.Count != 1 || h.Sum != 0.25 {
		t.Fatalf("histogram snapshot: %+v", h)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	// Counters, gauges and histograms must tally
	// exactly under concurrent writers (and pass -race).
	var (
		c Counter
		g Gauge
	)
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	const want = workers * per
	if c.Value() != want {
		t.Fatalf("Counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Fatalf("Gauge = %g, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Fatalf("Histogram = %d, want %d", h.Count(), want)
	}
}

func TestConcurrentSnapshotWhileWriting(t *testing.T) {
	// A scrape must be safe while instruments are being hammered — the
	// live /metrics contract.
	r := NewRegistry()
	c := r.Counter("hot")
	h := r.Histogram("hot_latency_s")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Inc()
			h.Observe(0.002)
		}
	}()
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
	}
	<-done
	if got := r.Snapshot().Counters["hot"]; got != 5000 {
		t.Fatalf("final counter = %d, want 5000", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("queue_depth"); got != "queue_depth" {
		t.Fatalf("no labels: %q", got)
	}
	got := Label("queue_depth", "resource", "S1", "tier", "leaf")
	want := `queue_depth{resource="S1",tier="leaf"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	base, labels := splitName(got)
	if base != "queue_depth" || labels != `resource="S1",tier="leaf"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
	base, labels = splitName("plain")
	if base != "plain" || labels != "" {
		t.Fatalf("splitName plain = %q, %q", base, labels)
	}
}
