package transport

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/xmlmsg"
)

// Default retry policy for client exchanges.
const (
	// DefaultMaxAttempts is how many times an exchange is tried before
	// the client gives up.
	DefaultMaxAttempts = 3
	// DefaultBackoffBase is the delay before the first retry; it doubles
	// on every further retry.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 2 * time.Second
)

// ExchangeError is the typed failure of a client exchange: which peer,
// how many attempts were spent, and at which stage of the exchange the
// last attempt died.
//
// Op taxonomy: "dial", "write" and "read" are transport-stage failures
// and are retried. "reply" is an application-level ErrorReply — the
// exchange itself succeeded, so it is never retried. "busy" is the
// server's admission gate shedding load; it is retried with backoff
// (the peer is alive, just saturated). "shed" and "window" are local
// backpressure at the client's own send window and fail fast — retrying
// immediately would only pile onto the same full window.
type ExchangeError struct {
	Addr     string // peer address dialled
	Attempts int    // attempts made before giving up
	Op       string // "dial", "write", "read", "reply", "busy", "shed" or "window"
	Err      error  // the last underlying error
}

func (e *ExchangeError) Error() string {
	return fmt.Sprintf("transport: %s %s (attempt %d): %v", e.Op, e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ExchangeError) Unwrap() error { return e.Err }

// PeerAnswered reports whether the exchange reached a live peer that
// answered it: an ErrorReply ("reply") is the peer declining this one
// request, Busy is the peer shedding load that will drain. Neither may
// trip a circuit breaker — that would turn brief saturation into minutes
// of exile — while every other Op means no answer came back. The hosted
// agent finds this method with errors.As (agent.peerAnswered).
func (e *ExchangeError) PeerAnswered() bool { return e.Op == "reply" || e.Op == "busy" }

// Client performs framed request/reply exchanges with bounded retries
// and exponential backoff over pooled multiplexed connections. The zero
// value is not usable; NewPooledClient fills in the defaults. Timeouts
// and retry policy are per-client so daemons on flaky links can be tuned
// without recompiling (the package-level Call uses the defaults).
type Client struct {
	DialTimeout     time.Duration // per-attempt dial bound
	ExchangeTimeout time.Duration // per-attempt request/reply bound
	MaxAttempts     int           // total tries per exchange
	BackoffBase     time.Duration // first retry delay, doubling each retry
	BackoffMax      time.Duration // backoff cap
	JitterSeed      uint64        // seeds deterministic backoff jitter

	// Sleep is called between attempts; tests inject a recorder so retry
	// schedules are asserted without wall-clock sleeps. Nil means
	// time.Sleep.
	Sleep func(time.Duration)

	// Metrics instruments this client's exchanges; the zero value (all
	// nil, the default) adds one branch per call and nothing else.
	Metrics ClientMetrics

	// Pool carries every attempt: the keep-alive multiplexed connections
	// and the per-peer in-flight window. Retry policy, backoff and
	// metrics sit above it.
	Pool *Pool
}

// ClientMetrics is the set of instruments a Client updates per Call:
// exchange count and end-to-end latency (including retries and
// backoff), retry attempts, and exchanges that failed outright.
//
// Failures counts transport-level failures only (dial/write/read
// exhausted, windows, busy peers). An application-level ErrorReply means
// the transport worked — the peer answered — so it counts under
// PeerErrors instead; lumping the two together made a healthy wire with
// an unhappy application look like a broken wire.
type ClientMetrics struct {
	Exchanges  *telemetry.Counter   // Calls made
	Retries    *telemetry.Counter   // extra attempts after the first
	Failures   *telemetry.Counter   // Calls lost to transport failures
	PeerErrors *telemetry.Counter   // Calls answered with an ErrorReply
	Busy       *telemetry.Counter   // busy (admission-shed) replies seen
	Latency    *telemetry.Histogram // wall-clock seconds per Call
}

// NewClientMetrics builds client instruments on reg; kv are optional
// label pairs (e.g. "resource", "S1" for the node that owns the
// client). The zero (disabled) ClientMetrics on a nil registry.
func NewClientMetrics(reg *telemetry.Registry, kv ...string) ClientMetrics {
	if reg == nil {
		return ClientMetrics{}
	}
	l := func(name string) string { return telemetry.Label(name, kv...) }
	return ClientMetrics{
		Exchanges:  reg.Counter(l("transport_exchanges_total")),
		Retries:    reg.Counter(l("transport_retries_total")),
		Failures:   reg.Counter(l("transport_failures_total")),
		PeerErrors: reg.Counter(l("transport_peer_errors_total")),
		Busy:       reg.Counter(l("transport_busy_total")),
		Latency:    reg.Histogram(l("transport_exchange_latency_s")),
	}
}

// NewPooledClient returns a client with the package defaults whose
// exchanges ride pooled, multiplexed keep-alive connections.
func NewPooledClient(cfg PoolConfig) *Client {
	return &Client{
		DialTimeout:     DialTimeout,
		ExchangeTimeout: ExchangeTimeout,
		MaxAttempts:     DefaultMaxAttempts,
		BackoffBase:     DefaultBackoffBase,
		BackoffMax:      DefaultBackoffMax,
		Pool:            NewPool(cfg),
	}
}

// defaultClient backs the package-level Call. It pools: package-level
// callers (nodes talking to farm peers) are exactly the hot paths that
// pay for a dial per exchange.
var defaultClient = NewPooledClient(PoolConfig{})

// Backoff returns the delay inserted after the given failed attempt
// (1-based): exponential doubling from BackoffBase capped at BackoffMax,
// plus up to 50% deterministic jitter derived from the jitter seed, the
// peer address and the attempt number — so concurrent retries to one
// dead peer spread out, yet any schedule is exactly reproducible.
func (c *Client) Backoff(addr string, attempt int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := c.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jitter := sim.SplitMix64(c.JitterSeed ^ sim.FNV1a(addr) ^ uint64(attempt))
	return d + time.Duration(jitter%uint64(d/2+1))
}

// Call performs one request/reply exchange, retrying transport-level
// failures (dial, write, read) up to MaxAttempts with backoff. An
// ErrorReply from the peer is an application-level failure: the exchange
// itself succeeded, so it is returned immediately and never retried.
func (c *Client) Call(addr string, msg interface{}) (interface{}, xmlmsg.Kind, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	c.Metrics.Exchanges.Inc()
	var start time.Time
	if c.Metrics.Latency != nil {
		start = time.Now()
	}
	reply, kind, err := c.call(addr, msg, attempts, sleep)
	if c.Metrics.Latency != nil {
		c.Metrics.Latency.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		// An ErrorReply reached us over a working transport: that is a
		// peer error, not a transport failure.
		if xe, ok := err.(*ExchangeError); ok && xe.Op == "reply" {
			c.Metrics.PeerErrors.Inc()
		} else {
			c.Metrics.Failures.Inc()
		}
	}
	return reply, kind, err
}

// call is the retry loop behind Call. Transport stages (dial, write,
// read) and busy peers are retried; application replies and local
// window backpressure return immediately.
func (c *Client) call(addr string, msg interface{}, attempts int, sleep func(time.Duration)) (interface{}, xmlmsg.Kind, error) {
	var last *ExchangeError
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.Metrics.Retries.Inc()
			sleep(c.Backoff(addr, attempt-1))
		}
		reply, kind, xerr := c.once(addr, msg)
		if xerr == nil {
			return reply, kind, nil
		}
		xerr.Attempts = attempt
		switch xerr.Op {
		case "reply":
			return nil, kind, xerr
		case "busy":
			c.Metrics.Busy.Inc()
		case "shed", "window":
			return nil, "", xerr
		}
		last = xerr
	}
	return nil, "", last
}

// once runs a single exchange attempt; a non-nil *ExchangeError has its
// Op set but Attempts left for the caller.
func (c *Client) once(addr string, msg interface{}) (interface{}, xmlmsg.Kind, *ExchangeError) {
	dialTO := c.DialTimeout
	if dialTO <= 0 {
		dialTO = DialTimeout
	}
	exchTO := c.ExchangeTimeout
	if exchTO <= 0 {
		exchTO = ExchangeTimeout
	}
	return c.Pool.Exchange(addr, msg, dialTO, exchTO)
}
