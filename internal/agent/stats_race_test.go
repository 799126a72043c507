package agent

import (
	"sync"
	"testing"

	"repro/internal/pace"
	"repro/internal/telemetry"
)

// TestStatsConcurrentScrape drives requests through a two-agent
// hierarchy on one goroutine while others scrape Stats() and a
// telemetry registry — the monitoring pattern of the networked node.
// The registry also carries the shared PACE engine's collector, so the
// scrape reads the engine's Stats and CacheLen while the driver predicts:
// those two are the only engine reads allowed off the owning goroutine.
// Before the counters moved onto atomics this was a data race (plain
// ints mutated by the driver, read by value from the scraper); under
// `go test -race` this test pins the fix.
func TestStatsConcurrentScrape(t *testing.T) {
	engine := pace.NewEngine()
	head, child := pair(t, engine)

	reg := telemetry.NewRegistry()
	head.RegisterMetrics(reg)
	child.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)

	app := appOf(t, "sweep3d")
	const requests = 200

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Driver: the single goroutine that owns the agents, as in every
	// deployment of this package.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		now := 0.0
		for i := 0; i < requests; i++ {
			req := Request{ReqID: uint64(i + 1), App: app, Env: "test", Deadline: now + 60}
			if _, err := head.HandleRequest(req, now); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if i%20 == 0 {
				head.Pull(now)
				child.Pull(now)
			}
			now += 0.5
		}
	}()

	// Scrapers: Stats() snapshots and registry snapshots, mid-run.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = head.Stats()
				_ = child.Stats()
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()

	st := head.Stats()
	if st.Received != requests {
		t.Fatalf("head received %d, want %d", st.Received, requests)
	}
	total := head.Stats().LocalAccept + child.Stats().LocalAccept
	if total != requests {
		t.Fatalf("accepted %d across agents, want %d", total, requests)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`agent_requests_received_total{resource="fast"}`]; got != requests {
		t.Fatalf("registry sees %d received, want %d", got, requests)
	}
	if got, want := snap.Gauges["pace_cache_len"], float64(engine.CacheLen()); got != want || want == 0 {
		t.Fatalf("registry sees pace_cache_len %v, want the engine's %v (> 0)", got, want)
	}
}
