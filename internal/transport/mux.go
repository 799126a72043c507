package transport

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmlmsg"
)

// muxConn is one keep-alive connection carrying many concurrent
// exchanges. Each request frame is tagged with an exchange ID; the reader
// goroutine routes reply frames back to the waiting caller by ID, so
// replies may return in any order — a slow exchange does not block the
// exchanges queued behind it.
type muxConn struct {
	addr  string
	conn  net.Conn
	codec byte // payload codec negotiated at setup (hello exchange)

	wmu sync.Mutex // serialises frame writes

	mu     sync.Mutex
	calls  map[uint64]chan muxResult // in-flight exchange ID -> waiter
	nextID uint64

	dead atomic.Bool // set once; a dead conn is pruned by the pool
}

// muxResult is what the reader delivers to a waiting exchange.
type muxResult struct {
	msg  interface{}
	kind xmlmsg.Kind
	err  error
}

// dialMux establishes a pooled connection: dial, negotiate the payload
// codec with a hello exchange, then hand the connection to a reader
// goroutine. wantBinary offers the compact binary codec; the server picks
// and XML remains the fallback either side can force.
func dialMux(addr string, dialTO, exchTO time.Duration, wantBinary bool) (*muxConn, *ExchangeError) {
	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, &ExchangeError{Addr: addr, Op: "dial", Err: err}
	}
	offer := string(rune(xmlmsg.CodecXML))
	if wantBinary {
		offer = string(rune(xmlmsg.CodecXML)) + string(rune(xmlmsg.CodecBinary))
	}
	// The hello happens synchronously under a deadline, before the reader
	// starts: the connection is not usable until the codec is agreed.
	_ = conn.SetDeadline(time.Now().Add(exchTO))
	payload, merr := xmlmsg.Encode(xmlmsg.CodecXML, xmlmsg.NewHello(offer))
	if merr != nil {
		conn.Close()
		return nil, &ExchangeError{Addr: addr, Op: "write", Err: merr}
	}
	if werr := xmlmsg.WriteMuxFrame(conn, xmlmsg.MuxFrame{ID: 0, Codec: xmlmsg.CodecXML, Payload: payload}); werr != nil {
		conn.Close()
		return nil, &ExchangeError{Addr: addr, Op: "write", Err: werr}
	}
	r := bufio.NewReader(conn)
	f, rerr := xmlmsg.ReadMuxFrame(r)
	if rerr != nil {
		conn.Close()
		return nil, &ExchangeError{Addr: addr, Op: "read", Err: rerr}
	}
	reply, _, derr := xmlmsg.DecodeWith(f.Codec, f.Payload)
	if derr != nil {
		conn.Close()
		return nil, &ExchangeError{Addr: addr, Op: "read", Err: derr}
	}
	h, ok := reply.(*xmlmsg.Hello)
	if !ok || len(h.Codecs) != 1 || !xmlmsg.ValidCodec(h.Codecs[0]) || !strings.Contains(offer, h.Codecs) {
		conn.Close()
		return nil, &ExchangeError{Addr: addr, Op: "read", Err: fmt.Errorf("transport: bad codec negotiation reply %#v", reply)}
	}
	_ = conn.SetDeadline(time.Time{})
	m := &muxConn{addr: addr, conn: conn, codec: h.Codecs[0], calls: map[uint64]chan muxResult{}}
	go m.readLoop(r)
	return m, nil
}

// readLoop routes reply frames to their waiters until the connection
// dies; any I/O or protocol error retires the connection and fails every
// in-flight exchange.
func (m *muxConn) readLoop(r *bufio.Reader) {
	for {
		f, err := xmlmsg.ReadMuxFrame(r)
		if err != nil {
			m.fail(fmt.Errorf("transport: connection to %s lost: %w", m.addr, err))
			return
		}
		msg, kind, derr := xmlmsg.DecodeWith(f.Codec, f.Payload)
		if derr != nil {
			m.fail(fmt.Errorf("transport: undecodable frame from %s: %w", m.addr, derr))
			return
		}
		m.mu.Lock()
		ch := m.calls[f.ID]
		delete(m.calls, f.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{msg: msg, kind: kind}
		}
		// A reply nobody waits for belonged to a timed-out exchange; the
		// conn was already retired in that case, so just drop it.
	}
}

// fail retires the connection and delivers err to every in-flight
// exchange.
func (m *muxConn) fail(err error) {
	m.dead.Store(true)
	m.conn.Close()
	m.mu.Lock()
	calls := m.calls
	m.calls = map[uint64]chan muxResult{}
	m.mu.Unlock()
	for _, ch := range calls {
		ch <- muxResult{err: err}
	}
}

// retire marks the connection broken and closes it; the reader's failure
// path then clears any other in-flight exchanges.
func (m *muxConn) retire() {
	m.dead.Store(true)
	m.conn.Close()
}

// roundTrip performs one multiplexed exchange with a bounded wait. A
// timeout retires the connection, so a stuck peer cannot poison the
// pool.
func (m *muxConn) roundTrip(msg interface{}, timeout time.Duration) (interface{}, xmlmsg.Kind, *ExchangeError) {
	payload, merr := xmlmsg.Encode(m.codec, msg)
	if merr != nil {
		return nil, "", &ExchangeError{Addr: m.addr, Op: "write", Err: merr}
	}
	ch := make(chan muxResult, 1)
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.calls[id] = ch
	m.mu.Unlock()

	m.wmu.Lock()
	_ = m.conn.SetWriteDeadline(time.Now().Add(timeout))
	werr := xmlmsg.WriteMuxFrame(m.conn, xmlmsg.MuxFrame{ID: id, Codec: m.codec, Payload: payload})
	m.wmu.Unlock()
	if werr != nil {
		m.unregister(id)
		m.retire()
		return nil, "", &ExchangeError{Addr: m.addr, Op: "write", Err: werr}
	}

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, "", &ExchangeError{Addr: m.addr, Op: "read", Err: res.err}
		}
		switch r := res.msg.(type) {
		case *xmlmsg.Busy:
			return nil, res.kind, &ExchangeError{Addr: m.addr, Op: "busy",
				Err: fmt.Errorf("transport: peer shedding load (%d in flight, limit %d)", r.Depth, r.Limit)}
		case *xmlmsg.ErrorReply:
			return nil, res.kind, &ExchangeError{Addr: m.addr, Op: "reply", Err: r.Err()}
		}
		return res.msg, res.kind, nil
	case <-t.C:
		m.unregister(id)
		m.retire()
		return nil, "", &ExchangeError{Addr: m.addr, Op: "read",
			Err: fmt.Errorf("transport: exchange %d to %s timed out after %v", id, m.addr, timeout)}
	}
}

func (m *muxConn) unregister(id uint64) {
	m.mu.Lock()
	delete(m.calls, id)
	m.mu.Unlock()
}
