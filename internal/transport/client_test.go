package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/xmlmsg"
)

// sleepRecorder replaces Client.Sleep so retry schedules are asserted
// without any wall-clock delay.
type sleepRecorder struct{ slept []time.Duration }

func (s *sleepRecorder) sleep(d time.Duration) { s.slept = append(s.slept, d) }

// deadAddr reserves an ephemeral port and releases it, yielding an
// address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestErrorReplyRoundTripNotRetried(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		return nil, fmt.Errorf("scheduler full")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := &sleepRecorder{}
	c := NewPooledClient(PoolConfig{})
	c.Sleep = rec.sleep
	_, _, err = c.Call(srv.Addr(), xmlmsg.NewServiceQuery())
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("err = %v (%T), want *ExchangeError", err, err)
	}
	if xe.Op != "reply" || xe.Attempts != 1 {
		t.Fatalf("ExchangeError = %+v, want Op reply after 1 attempt", xe)
	}
	if xe.Addr != srv.Addr() {
		t.Fatalf("ExchangeError.Addr = %q, want %q", xe.Addr, srv.Addr())
	}
	if len(rec.slept) != 0 {
		t.Fatalf("an application-level ErrorReply was retried: slept %v", rec.slept)
	}
	if want := "scheduler full"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the handler message %q", err, want)
	}
}

func TestServerClosedMidExchangeRetriesThenFails(t *testing.T) {
	// A raw listener that accepts and instantly closes every connection:
	// the dial succeeds, then the exchange dies mid-flight.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	rec := &sleepRecorder{}
	c := NewPooledClient(PoolConfig{})
	c.MaxAttempts = 3
	c.Sleep = rec.sleep
	_, _, err = c.Call(ln.Addr().String(), xmlmsg.NewServiceQuery())
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("err = %v (%T), want *ExchangeError", err, err)
	}
	if xe.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", xe.Attempts)
	}
	if xe.Op == "dial" || xe.Op == "reply" {
		t.Fatalf("Op = %q, want a mid-exchange failure (write or read)", xe.Op)
	}
	if len(rec.slept) != 2 {
		t.Fatalf("slept %d times between 3 attempts, want 2", len(rec.slept))
	}
}

func TestDialDeadPortExhaustsRetriesWithBackoff(t *testing.T) {
	addr := deadAddr(t)
	rec := &sleepRecorder{}
	c := NewPooledClient(PoolConfig{})
	c.MaxAttempts = 4
	c.JitterSeed = 7
	c.Sleep = rec.sleep
	c.DialTimeout = 200 * time.Millisecond

	_, _, err := c.Call(addr, xmlmsg.NewServiceQuery())
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("err = %v (%T), want *ExchangeError", err, err)
	}
	if xe.Op != "dial" || xe.Attempts != 4 || xe.Addr != addr {
		t.Fatalf("ExchangeError = %+v, want dial failure on %s after 4 attempts", xe, addr)
	}

	// The backoff schedule is exactly the deterministic Backoff sequence.
	want := []time.Duration{c.Backoff(addr, 1), c.Backoff(addr, 2), c.Backoff(addr, 3)}
	if len(rec.slept) != len(want) {
		t.Fatalf("slept %v, want %d delays", rec.slept, len(want))
	}
	for i := range want {
		if rec.slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full schedule %v)", i, rec.slept[i], want[i], rec.slept)
		}
	}
	// Each delay doubles from the base and carries at most 50% jitter.
	for i, d := range rec.slept {
		lo := c.BackoffBase << uint(i)
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Fatalf("sleep %d = %v outside envelope [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	c := NewPooledClient(PoolConfig{})
	c.BackoffBase = 50 * time.Millisecond
	c.BackoffMax = 200 * time.Millisecond
	d := c.Backoff("x:1", 10)
	if max := c.BackoffMax + c.BackoffMax/2; d > max {
		t.Fatalf("Backoff(10) = %v, want <= cap+jitter %v", d, max)
	}
	if d < c.BackoffMax {
		t.Fatalf("Backoff(10) = %v, want >= cap %v", d, c.BackoffMax)
	}
	// Deterministic: same client state, same schedule.
	if a, b := c.Backoff("x:1", 3), c.Backoff("x:1", 3); a != b {
		t.Fatalf("Backoff not deterministic: %v vs %v", a, b)
	}
	// Different attempts (and different peers) jitter independently.
	if c.Backoff("x:1", 1) == c.Backoff("y:2", 1) && c.Backoff("x:1", 2) == c.Backoff("y:2", 2) {
		t.Fatal("jitter ignores the peer address")
	}
}

// TestBackoffWithoutJitterSourceIsByteIdentical pins the one backoff
// schedule there is: the delay for every (seed, address, attempt) triple
// is the hash-derived value deployments have always seen.
func TestBackoffWithoutJitterSourceIsByteIdentical(t *testing.T) {
	c := NewPooledClient(PoolConfig{})
	c.JitterSeed = 42
	for _, addr := range []string{"a:1", "b:2"} {
		for attempt := 1; attempt <= 4; attempt++ {
			base := c.BackoffBase
			max := c.BackoffMax
			d := base
			for i := 1; i < attempt && d < max; i++ {
				d *= 2
			}
			if d > max {
				d = max
			}
			// The formula, inlined: any drift here means deployed retry
			// schedules changed.
			jitter := splitmix64(c.JitterSeed ^ hashAddr(addr) ^ uint64(attempt))
			want := d + time.Duration(jitter%uint64(d/2+1))
			if got := c.Backoff(addr, attempt); got != want {
				t.Fatalf("Backoff(%q, %d) = %v, want the hash schedule %v", addr, attempt, got, want)
			}
		}
	}
}
