package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xmlmsg"
)

// Pool defaults.
const (
	// DefaultPoolSize is how many keep-alive connections a pool maintains
	// per peer address.
	DefaultPoolSize = 2
	// DefaultWindow is the per-peer in-flight exchange bound: excess
	// callers block (or shed, see PoolConfig.Shed) until a slot frees.
	DefaultWindow = 64
)

// PoolConfig tunes a connection pool.
type PoolConfig struct {
	// Size is the number of keep-alive connections kept per peer; 0 means
	// DefaultPoolSize.
	Size int
	// Window bounds in-flight exchanges per peer (the send window of a
	// Tecellate-style windowed sender); 0 means DefaultWindow.
	Window int
	// Shed makes over-window Calls fail immediately with a typed
	// ExchangeError (Op "shed") instead of blocking for a slot — the
	// fail-fast mode for callers that would rather drop than queue.
	Shed bool
	// Binary offers the compact binary codec when a connection is
	// established; the server picks, and XML remains the default.
	Binary bool
	// Metrics instruments the pool; the zero value observes nothing.
	Metrics PoolMetrics
}

// PoolMetrics is the set of instruments a Pool updates: live connection
// count, window occupancy, exchanges shed at the window, and connections
// retired after errors or timeouts.
type PoolMetrics struct {
	Conns    *telemetry.Gauge   // live pooled connections
	Inflight *telemetry.Gauge   // window occupancy (in-flight exchanges)
	Shed     *telemetry.Counter // Calls dropped at a full window (Shed mode)
	Retired  *telemetry.Counter // connections retired (errors, timeouts)
}

// NewPoolMetrics builds pool instruments on reg; kv are optional label
// pairs. Zero (disabled) metrics on a nil registry.
func NewPoolMetrics(reg *telemetry.Registry, kv ...string) PoolMetrics {
	if reg == nil {
		return PoolMetrics{}
	}
	l := func(name string) string { return telemetry.Label(name, kv...) }
	return PoolMetrics{
		Conns:    reg.Gauge(l("transport_pool_conns")),
		Inflight: reg.Gauge(l("transport_window_inflight")),
		Shed:     reg.Counter(l("transport_shed_total")),
		Retired:  reg.Counter(l("transport_pool_retired_total")),
	}
}

// Pool keeps per-peer sets of multiplexed keep-alive connections and
// enforces the per-peer in-flight window: an exchange reuses a live
// connection, tags its frame with an exchange ID, and waits only for its
// own reply. Broken connections fail all their in-flight exchanges, are
// pruned on the next use, and redialled on demand — the retry loop in
// Client sees them as dial/write/read failure stages.
type Pool struct {
	cfg PoolConfig

	mu    sync.Mutex
	peers map[string]*peerConns
}

// peerConns is the pool's state for one address.
type peerConns struct {
	mu      sync.Mutex
	conns   []*muxConn
	dialing int
	rr      int           // round-robin cursor
	sem     chan struct{} // window tokens
}

// NewPool builds a pool with the given configuration.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Pool{cfg: cfg, peers: map[string]*peerConns{}}
}

func (p *Pool) peer(addr string) *peerConns {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc, ok := p.peers[addr]
	if !ok {
		pc = &peerConns{sem: make(chan struct{}, p.cfg.Window)}
		p.peers[addr] = pc
	}
	return pc
}

// Exchange performs one request/reply exchange with addr through the
// pool: acquire a window slot, pick (or dial) a connection, round-trip.
// Errors come back as typed *ExchangeError stages for the caller's retry
// policy.
func (p *Pool) Exchange(addr string, msg interface{}, dialTO, exchTO time.Duration) (interface{}, xmlmsg.Kind, *ExchangeError) {
	pc := p.peer(addr)

	// Window backpressure: shed immediately or block for a slot, bounded
	// by the exchange timeout so a saturated peer cannot wedge callers
	// forever.
	if p.cfg.Shed {
		select {
		case pc.sem <- struct{}{}:
		default:
			p.cfg.Metrics.Shed.Inc()
			return nil, "", &ExchangeError{Addr: addr, Op: "shed",
				Err: fmt.Errorf("transport: window to %s full (%d in flight)", addr, cap(pc.sem))}
		}
	} else {
		t := time.NewTimer(exchTO)
		select {
		case pc.sem <- struct{}{}:
			t.Stop()
		case <-t.C:
			return nil, "", &ExchangeError{Addr: addr, Op: "window",
				Err: fmt.Errorf("transport: window to %s still full after %v (%d in flight)", addr, exchTO, cap(pc.sem))}
		}
	}
	p.cfg.Metrics.Inflight.Add(1)
	defer func() {
		<-pc.sem
		p.cfg.Metrics.Inflight.Add(-1)
	}()

	mc, ephemeral, xe := p.pick(pc, addr, dialTO, exchTO)
	if xe != nil {
		return nil, "", xe
	}
	if ephemeral {
		defer mc.retire()
	}
	return mc.roundTrip(msg, exchTO)
}

// pick prunes dead connections, grows the peer's set towards the
// configured size, and returns a live connection round-robin. When a
// growth dial fails but a healthy connection exists, the healthy one is
// used — a flapping peer degrades throughput, not availability. A cold
// start under concurrency can dial more connections than the pool
// keeps; the surplus come back marked ephemeral (serve one exchange,
// then retire) so the pool never exceeds its size.
func (p *Pool) pick(pc *peerConns, addr string, dialTO, exchTO time.Duration) (mc *muxConn, ephemeral bool, xe *ExchangeError) {
	pc.mu.Lock()
	live := pc.conns[:0]
	for _, c := range pc.conns {
		if c.dead.Load() {
			p.cfg.Metrics.Retired.Inc()
			p.cfg.Metrics.Conns.Add(-1)
		} else {
			live = append(live, c)
		}
	}
	pc.conns = live
	if len(pc.conns)+pc.dialing >= p.cfg.Size && len(pc.conns) > 0 {
		pc.rr++
		mc = pc.conns[pc.rr%len(pc.conns)]
		pc.mu.Unlock()
		return mc, false, nil
	}
	pc.dialing++
	pc.mu.Unlock()

	mc, xe = dialMux(addr, dialTO, exchTO, p.cfg.Binary)

	pc.mu.Lock()
	pc.dialing--
	if xe == nil {
		if len(pc.conns) >= p.cfg.Size {
			pc.mu.Unlock()
			return mc, true, nil
		}
		pc.conns = append(pc.conns, mc)
		p.cfg.Metrics.Conns.Add(1)
		pc.mu.Unlock()
		return mc, false, nil
	}
	// Dial failed: fall back to any connection that is still healthy.
	for i := 0; i < len(pc.conns); i++ {
		pc.rr++
		if c := pc.conns[pc.rr%len(pc.conns)]; !c.dead.Load() {
			pc.mu.Unlock()
			return c, false, nil
		}
	}
	pc.mu.Unlock()
	return nil, false, xe
}

// ConnCount reports the live pooled connections to addr — test and
// telemetry introspection.
func (p *Pool) ConnCount(addr string) int {
	p.mu.Lock()
	pc, ok := p.peers[addr]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := 0
	for _, c := range pc.conns {
		if !c.dead.Load() {
			n++
		}
	}
	return n
}

// Close retires every pooled connection; in-flight exchanges fail. A
// closed pool can keep being used — the next exchange just redials.
func (p *Pool) Close() {
	p.mu.Lock()
	peers := make([]*peerConns, 0, len(p.peers))
	for _, pc := range p.peers {
		peers = append(peers, pc)
	}
	p.mu.Unlock()
	for _, pc := range peers {
		pc.mu.Lock()
		conns := pc.conns
		pc.conns = nil
		pc.mu.Unlock()
		for _, c := range conns {
			c.retire()
			p.cfg.Metrics.Conns.Add(-1)
		}
	}
}
