package transport

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmlmsg"
)

// BenchmarkExchange measures farm-transport throughput over loopback:
// concurrent request/ack exchanges against one server, with a cheap
// handler so the wire dominates (a full farm node serialises on its
// agent lock, which would mask transport differences). Reports exact
// p50/p99 latency alongside req/s.
func BenchmarkExchange(b *testing.B) {
	const conc = 16
	b.Run("pooled", func(b *testing.B) {
		s, err := Serve("127.0.0.1:0", echoHandler)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := NewPooledClient(PoolConfig{Size: 4})
		defer c.Pool.Close()
		benchExchanges(b, c, s.Addr(), conc)
	})
	b.Run("pooled-binary", func(b *testing.B) {
		s, err := ServeWith("127.0.0.1:0", echoHandler, ServerConfig{AllowBinary: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := NewPooledClient(PoolConfig{Size: 4, Binary: true})
		defer c.Pool.Close()
		benchExchanges(b, c, s.Addr(), conc)
	})
}

func benchExchanges(b *testing.B, c *Client, addr string, conc int) {
	var next atomic.Uint64
	lat := make([][]time.Duration, conc)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > uint64(b.N) {
					return
				}
				req := xmlmsg.NewWireRequest(n, "sweep3d", "test", 1e6, "bench@grid", xmlmsg.ModeDiscover, nil)
				t0 := time.Now()
				if _, _, err := c.Call(addr, req); err != nil {
					b.Error(err)
					return
				}
				lat[g] = append(lat[g], time.Since(t0))
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()
	if b.Failed() {
		return
	}
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i].Seconds() * 1e3
	}
	b.ReportMetric(float64(b.N)/wall.Seconds(), "req/s")
	b.ReportMetric(q(0.50), "p50-ms")
	b.ReportMetric(q(0.99), "p99-ms")
}
