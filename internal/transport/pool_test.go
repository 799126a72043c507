package transport

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xmlmsg"
)

// sleepyEchoHandler behaves like echoHandler but a service query whose
// email carries an integer sleeps that many milliseconds first — the
// knob the multiplexing and backpressure tests use to hold exchanges
// open for controlled times.
func sleepyEchoHandler(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
	if q, ok := msg.(*xmlmsg.Query); ok && q.What == "service" {
		if ms, err := strconv.Atoi(q.Email); err == nil && ms > 0 {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
	}
	return echoHandler(msg, kind)
}

func delayedQuery(ms int) xmlmsg.Query {
	return xmlmsg.Query{Type: "query", What: "service", Email: strconv.Itoa(ms)}
}

func TestPooledCallsReuseConnections(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := telemetry.NewRegistry()
	c := NewPooledClient(PoolConfig{Size: 2, Metrics: NewPoolMetrics(reg)})
	defer c.Pool.Close()
	for i := 0; i < 20; i++ {
		if _, _, err := c.Call(s.Addr(), xmlmsg.NewServiceQuery()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := c.Pool.ConnCount(s.Addr()); n < 1 || n > 2 {
		t.Fatalf("pool holds %d connections, want 1..2", n)
	}
	if got := reg.Gauge("transport_pool_conns").Value(); got < 1 || got > 2 {
		t.Fatalf("transport_pool_conns = %v", got)
	}
}

func TestPoolRetiresBrokenConnectionsAndRedials(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	reg := telemetry.NewRegistry()
	c := NewPooledClient(PoolConfig{Size: 1, Metrics: NewPoolMetrics(reg)})
	defer c.Pool.Close()
	if _, _, err := c.Call(addr, xmlmsg.NewServiceQuery()); err != nil {
		t.Fatal(err)
	}
	if n := c.Pool.ConnCount(addr); n != 1 {
		t.Fatalf("pool holds %d connections, want 1", n)
	}

	// Kill the server: the pooled connection dies. The same port is
	// reclaimed so the client's redial lands on a fresh server.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Serve(addr, echoHandler)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer s2.Close()

	// The retry loop inside Call absorbs the one failed attempt on the
	// stale connection; the retry prunes it and dials the new server.
	c.Sleep = func(time.Duration) {}
	if _, _, err := c.Call(addr, xmlmsg.NewServiceQuery()); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if got := reg.Counter("transport_pool_retired_total").Value(); got < 1 {
		t.Fatalf("transport_pool_retired_total = %d, want >= 1", got)
	}
	if n := c.Pool.ConnCount(addr); n != 1 {
		t.Fatalf("pool holds %d connections after redial, want 1", n)
	}
}

func TestMultiplexedRepliesReturnOutOfOrder(t *testing.T) {
	s, err := Serve("127.0.0.1:0", sleepyEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One connection carries both exchanges (Size: 1); the slow one is
	// sent first, the fast one second — under the legacy one-at-a-time
	// protocol the fast reply would queue behind the slow handler.
	p := NewPool(PoolConfig{Size: 1})
	defer p.Close()

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, xe := p.Exchange(s.Addr(), delayedQuery(400), time.Second, 5*time.Second); xe != nil {
			t.Errorf("slow exchange: %v", xe)
		}
		order <- "slow"
	}()
	time.Sleep(100 * time.Millisecond) // slow request is in flight first
	go func() {
		defer wg.Done()
		if _, _, xe := p.Exchange(s.Addr(), delayedQuery(0), time.Second, 5*time.Second); xe != nil {
			t.Errorf("fast exchange: %v", xe)
		}
		order <- "fast"
	}()
	wg.Wait()
	if first := <-order; first != "fast" {
		t.Fatalf("first completed exchange = %q, want the later-sent fast one", first)
	}
	if p.ConnCount(s.Addr()) != 1 {
		t.Fatalf("exchanges used %d connections, want 1", p.ConnCount(s.Addr()))
	}
}

func TestWindowShedsWhenFull(t *testing.T) {
	s, err := Serve("127.0.0.1:0", sleepyEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := telemetry.NewRegistry()
	p := NewPool(PoolConfig{Size: 1, Window: 1, Shed: true, Metrics: NewPoolMetrics(reg)})
	defer p.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, xe := p.Exchange(s.Addr(), delayedQuery(500), time.Second, 5*time.Second); xe != nil {
			t.Errorf("occupying exchange: %v", xe)
		}
	}()
	time.Sleep(100 * time.Millisecond) // window slot taken
	_, _, xe := p.Exchange(s.Addr(), delayedQuery(0), time.Second, 5*time.Second)
	if xe == nil || xe.Op != "shed" {
		t.Fatalf("over-window exchange = %v, want Op shed", xe)
	}
	if got := reg.Counter("transport_shed_total").Value(); got != 1 {
		t.Fatalf("transport_shed_total = %d, want 1", got)
	}
	<-done
	// With the window free again the same exchange goes through.
	if _, _, xe := p.Exchange(s.Addr(), delayedQuery(0), time.Second, 5*time.Second); xe != nil {
		t.Fatalf("post-drain exchange: %v", xe)
	}
}

func TestWindowBlocksThenTimesOut(t *testing.T) {
	s, err := Serve("127.0.0.1:0", sleepyEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := NewPool(PoolConfig{Size: 1, Window: 1})
	defer p.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = p.Exchange(s.Addr(), delayedQuery(600), time.Second, 5*time.Second)
	}()
	time.Sleep(100 * time.Millisecond)
	// Blocking mode: the second exchange waits for a slot, bounded by its
	// exchange timeout.
	start := time.Now()
	_, _, xe := p.Exchange(s.Addr(), delayedQuery(0), time.Second, 150*time.Millisecond)
	if xe == nil || xe.Op != "window" {
		t.Fatalf("blocked exchange = %v, want Op window", xe)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("shed after %v: blocking mode must wait for the window", waited)
	}
	<-done
}

// Client.call must not retry local backpressure: the window is full
// because of our own in-flight load, and hammering it helps nobody.
func TestShedAndWindowErrorsAreNotRetried(t *testing.T) {
	s, err := Serve("127.0.0.1:0", sleepyEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewPooledClient(PoolConfig{Size: 1, Window: 1, Shed: true})
	defer c.Pool.Close()
	var slept []time.Duration
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Pool.Exchange(s.Addr(), delayedQuery(500), time.Second, 5*time.Second)
	}()
	time.Sleep(100 * time.Millisecond)
	_, _, err = c.Call(s.Addr(), delayedQuery(0))
	xe, ok := err.(*ExchangeError)
	if !ok || xe.Op != "shed" || xe.Attempts != 1 {
		t.Fatalf("call = %v, want one-attempt shed", err)
	}
	if len(slept) != 0 {
		t.Fatalf("client backed off %v for a local shed", slept)
	}
	<-done
}

func TestCodecNegotiation(t *testing.T) {
	cases := []struct {
		name        string
		allowBinary bool
		wantBinary  bool
		wantCodec   byte
	}{
		{"both sides binary", true, true, xmlmsg.CodecBinary},
		{"server refuses binary", false, true, xmlmsg.CodecXML},
		{"client never asked", true, false, xmlmsg.CodecXML},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ServeWith("127.0.0.1:0", echoHandler, ServerConfig{AllowBinary: tc.allowBinary})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mc, xe := dialMux(s.Addr(), time.Second, time.Second, tc.wantBinary)
			if xe != nil {
				t.Fatal(xe)
			}
			defer mc.retire()
			if mc.codec != tc.wantCodec {
				t.Fatalf("negotiated codec %c, want %c", mc.codec, tc.wantCodec)
			}
			// The negotiated connection must carry a real exchange.
			reply, kind, xe := mc.roundTrip(xmlmsg.NewServiceQuery(), time.Second)
			if xe != nil || kind != xmlmsg.KindService {
				t.Fatalf("roundTrip kind %v err %v", kind, xe)
			}
			if si := reply.(*xmlmsg.ServiceInfo); si.Local.HWType != "SunUltra5" {
				t.Fatalf("service info %+v", si)
			}
		})
	}
}

// TestDuplicateDeliveryIsNotReexecuted injects the timeout-retry fault
// the dedup cache exists for: the first delivery executes slowly, the
// client times out and retries, and the retried delivery must join the
// original execution instead of dispatching the task a second time.
func TestDuplicateDeliveryIsNotReexecuted(t *testing.T) {
	var execs atomic.Int32
	h := func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		req, ok := msg.(*xmlmsg.Request)
		if !ok {
			return echoHandler(msg, kind)
		}
		if execs.Add(1) == 1 {
			time.Sleep(500 * time.Millisecond) // outlive the client's timeout
		}
		return xmlmsg.NewDispatchAck("S1", int(execs.Load()), req.ReqID, 99, 1, false), nil
	}
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewPooledClient(PoolConfig{})
	defer c.Pool.Close()
	c.ExchangeTimeout = 300 * time.Millisecond
	c.Sleep = func(time.Duration) {}

	req := xmlmsg.NewWireRequest(777, "sweep3d", "test", 1e6, "u@example.org", xmlmsg.ModeDiscover, nil)
	reply, kind, err := c.Call(s.Addr(), req)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if kind != xmlmsg.KindDispatch {
		t.Fatalf("kind = %v", kind)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("request executed %d times, want 1", got)
	}
	// The cached reply is the original execution's.
	if ack := reply.(*xmlmsg.DispatchAck); ack.TaskID != 1 || ack.ReqID != 777 {
		t.Fatalf("ack %+v, want the first execution's reply", ack)
	}

	// A later retry of the same request hits the completed cache entry.
	if _, _, err := c.Call(s.Addr(), req); err != nil {
		t.Fatalf("late retry: %v", err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("late retry re-executed: %d executions", got)
	}
}

func TestAdmissionGateShedsRequestsNotQueries(t *testing.T) {
	gate := make(chan struct{})
	h := func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		if kind == xmlmsg.KindRequest {
			<-gate
		}
		return echoHandler(msg, kind)
	}
	s, err := ServeWith("127.0.0.1:0", h, ServerConfig{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(gate)

	p := NewPool(PoolConfig{})
	defer p.Close()

	first := make(chan *ExchangeError, 1)
	go func() {
		_, _, xe := p.Exchange(s.Addr(), xmlmsg.NewWireRequest(1, "sweep3d", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil),
			time.Second, 5*time.Second)
		first <- xe
	}()
	deadlineWait(t, func() bool { return s.Inflight() == 1 })

	// Second request: the gate is full, the server sheds with Busy.
	_, _, xe := p.Exchange(s.Addr(), xmlmsg.NewWireRequest(2, "sweep3d", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil),
		time.Second, 5*time.Second)
	if xe == nil || xe.Op != "busy" {
		t.Fatalf("over-limit request = %v, want Op busy", xe)
	}

	// Queries are exempt: a saturated node must stay observable, or the
	// pull-based circuit breakers would trip on load instead of death.
	if _, kind, xe := p.Exchange(s.Addr(), xmlmsg.NewServiceQuery(), time.Second, 5*time.Second); xe != nil || kind != xmlmsg.KindService {
		t.Fatalf("query during saturation: kind %v err %v", kind, xe)
	}

	gate <- struct{}{}
	if xe := <-first; xe != nil {
		t.Fatalf("admitted request: %v", xe)
	}
}

func deadlineWait(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in 2s")
}

// TestServerCloseFastWithIdlePooledConnections pins the shutdown bug:
// idle keep-alive connections park in blocking reads, and Close used to
// wait out their full ExchangeTimeout deadline.
func TestServerCloseFastWithIdlePooledConnections(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPooledClient(PoolConfig{Size: 2})
	defer c.Pool.Close()
	if _, _, err := c.Call(s.Addr(), xmlmsg.NewServiceQuery()); err != nil {
		t.Fatal(err)
	}
	// The pooled connection is now idle, parked in the server's read.
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with an idle pooled connection, want < 1s", d)
	}
}

func TestServerCloseUnderLoad(t *testing.T) {
	s, err := Serve("127.0.0.1:0", sleepyEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPooledClient(PoolConfig{Size: 2})
	defer c.Pool.Close()
	c.MaxAttempts = 1

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Some of these are mid-exchange when Close lands; they must
			// fail with transport errors, not hang.
			_, _, _ = c.Call(s.Addr(), delayedQuery(200))
		}()
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v under load, want < 1s", d)
	}
	wg.Wait()
}

func TestFailuresMetricSplitsTransportFromPeerErrors(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := telemetry.NewRegistry()
	c := NewPooledClient(PoolConfig{})
	defer c.Pool.Close()
	c.Metrics = NewClientMetrics(reg)
	c.MaxAttempts = 1
	c.DialTimeout = 200 * time.Millisecond

	// echoHandler errors on a Result message -> ErrorReply: the wire
	// worked, so this is a peer error, not a transport failure.
	if _, _, err := c.Call(s.Addr(), xmlmsg.NewResult("x", 1, "S1", 1, 0, 1, 2, "u@g")); err == nil {
		t.Fatal("expected an error reply")
	}
	if pe, f := reg.Counter("transport_peer_errors_total").Value(), reg.Counter("transport_failures_total").Value(); pe != 1 || f != 0 {
		t.Fatalf("after ErrorReply: peer_errors=%d failures=%d, want 1/0", pe, f)
	}

	// A dead port is a genuine transport failure.
	if _, _, err := c.Call(deadAddr(t), xmlmsg.NewServiceQuery()); err == nil {
		t.Fatal("expected a dial failure")
	}
	if pe, f := reg.Counter("transport_peer_errors_total").Value(), reg.Counter("transport_failures_total").Value(); pe != 1 || f != 1 {
		t.Fatalf("after dead dial: peer_errors=%d failures=%d, want 1/1", pe, f)
	}
}

func TestConcurrentPooledCallsOneClient(t *testing.T) {
	s, err := ServeWith("127.0.0.1:0", echoHandler, ServerConfig{AllowBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewPooledClient(PoolConfig{Size: 2, Binary: true})
	defer c.Pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, _, err = c.Call(s.Addr(), xmlmsg.NewServiceQuery())
				} else {
					_, _, err = c.Call(s.Addr(), xmlmsg.NewWireRequest(uint64(g*1000+i+1), "sweep3d", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil))
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.Pool.ConnCount(s.Addr()); n > 2 {
		t.Fatalf("pool grew to %d connections, cap is 2", n)
	}
}

// A connection that dies mid-wait delivers the failure to every
// in-flight exchange instead of leaving them to time out.
func TestBrokenConnFailsAllInflightExchanges(t *testing.T) {
	// A raw listener that accepts the hello and then hangs up after the
	// first request frame arrives.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		_, _ = conn.Read(buf) // hello frame
		payload, _ := xmlmsg.Encode(xmlmsg.CodecXML, xmlmsg.NewHello("x"))
		_ = xmlmsg.WriteMuxFrame(conn, xmlmsg.MuxFrame{ID: 0, Codec: xmlmsg.CodecXML, Payload: payload})
		_, _ = conn.Read(buf) // first request frame
		conn.Close()          // die with exchanges in flight
	}()

	mc, xe := dialMux(ln.Addr().String(), time.Second, time.Second, false)
	if xe != nil {
		t.Fatal(xe)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, _, xe := mc.roundTrip(xmlmsg.NewServiceQuery(), 10*time.Second)
			if xe == nil {
				t.Error("exchange on dying connection succeeded")
				return
			}
			if time.Since(start) > 5*time.Second {
				t.Error("exchange waited for its timeout instead of failing with the connection")
			}
		}()
	}
	wg.Wait()
	if !mc.dead.Load() {
		t.Fatal("connection not marked dead")
	}
}
