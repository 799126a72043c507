// Package transport runs the agent system over real TCP connections with
// the XML message formats of internal/xmlmsg, the Go analogue of the
// paper's Java/XML deployment (§3.2). Agents are long-lived daemons
// (cmd/gridagent) and the portal (cmd/gridsubmit) is a one-shot client.
// Every connection speaks the multiplexed framing of xmlmsg (see Pool):
// many concurrent exchanges ride one keep-alive connection and replies
// return out of order. XML is the default payload, binary the
// negotiated option.
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

// DialTimeout bounds connection establishment to a peer.
const DialTimeout = 5 * time.Second

// ExchangeTimeout bounds a full request/reply exchange.
const ExchangeTimeout = 30 * time.Second

// Handler processes one decoded message and returns the reply message.
// A returned error is delivered to the caller as an ErrorReply.
type Handler func(msg interface{}, kind xmlmsg.Kind) (interface{}, error)

// ServerConfig tunes a server beyond the zero-value defaults.
type ServerConfig struct {
	// MaxInflight, when positive, is the admission gate: once that many
	// requests are executing (or waiting on duplicates), further requests
	// are answered with a typed Busy reply instead of queueing without
	// bound. Only task requests count — advertisement and result queries
	// always pass, so pull-based failure detection keeps working on a
	// saturated node. Zero disables admission control.
	MaxInflight int

	// AllowBinary permits negotiating the compact binary payload codec on
	// multiplexed connections. Off, every exchange stays XML regardless
	// of what clients offer.
	AllowBinary bool

	// DedupWindow sizes the duplicate-suppression cache: how many
	// completed requests the server remembers by ReqID so a retried
	// delivery returns the original reply instead of re-executing a
	// non-idempotent dispatch. Zero means DefaultDedupWindow; negative
	// disables deduplication.
	DedupWindow int
}

// Server accepts framed agentgrid exchanges on a TCP listener.
type Server struct {
	ln      net.Listener
	handler Handler
	cfg     ServerConfig
	dedup   *dedupCache

	inflight atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral
// port) with the default configuration. The returned server is already
// accepting.
func Serve(addr string, h Handler) (*Server, error) {
	return ServeWith(addr, h, ServerConfig{})
}

// ServeWith starts a server with explicit configuration.
func ServeWith(addr string, h Handler, cfg ServerConfig) (*Server, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: h, cfg: cfg, conns: map[net.Conn]struct{}{}}
	if cfg.DedupWindow >= 0 {
		w := cfg.DedupWindow
		if w == 0 {
			w = DefaultDedupWindow
		}
		s.dedup = newDedupCache(w)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Port returns the bound TCP port.
func (s *Server) Port() int { return s.ln.Addr().(*net.TCPAddr).Port }

// Inflight reports how many requests are currently executing — the
// depth the admission gate compares against MaxInflight.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Close stops accepting, force-closes every open connection and waits
// for the per-connection goroutines. Closing the connections is what
// makes shutdown prompt: a pooled peer keeps idle keep-alive
// connections parked in blocking reads, and before connections were
// tracked, Close waited up to a full ExchangeTimeout for those reads to
// time out.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection for shutdown; false means the
// server is already closing and the connection should be dropped.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn serves one connection until the peer closes or errors.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	s.serveMux(conn)
}

// serveMux speaks the wire protocol: a hello exchange picks the payload
// codec, then each request frame is dispatched on its own goroutine and
// replies are written back — tagged with the request's exchange ID — in
// whatever order the handlers finish. Connections carry no idle read
// deadline (pooled connections park between bursts); shutdown closes
// them explicitly. A connection that opens with anything but a mux hello
// frame is dropped without a reply.
func (s *Server) serveMux(conn net.Conn) {
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(ExchangeTimeout))
	hf, err := xmlmsg.ReadMuxFrame(r)
	if err != nil {
		return
	}
	hmsg, _, err := xmlmsg.DecodeWith(hf.Codec, hf.Payload)
	if err != nil {
		return
	}
	hello, ok := hmsg.(*xmlmsg.Hello)
	if !ok {
		return // first mux frame must negotiate the codec
	}
	codec := byte(xmlmsg.CodecXML)
	if s.cfg.AllowBinary && strings.IndexByte(hello.Codecs, xmlmsg.CodecBinary) >= 0 {
		codec = xmlmsg.CodecBinary
	}
	_ = conn.SetReadDeadline(time.Time{})

	var wmu sync.Mutex
	write := func(id uint64, reply interface{}, c byte) error {
		payload, merr := xmlmsg.Encode(c, reply)
		if merr != nil {
			payload, merr = xmlmsg.Encode(c, xmlmsg.NewErrorReply(merr))
			if merr != nil {
				return merr
			}
		}
		wmu.Lock()
		defer wmu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(ExchangeTimeout))
		return xmlmsg.WriteMuxFrame(conn, xmlmsg.MuxFrame{ID: id, Codec: c, Payload: payload})
	}
	// The hello reply always travels as XML: the chosen codec only
	// applies from the next frame on.
	if write(hf.ID, xmlmsg.NewHello(string([]byte{codec})), xmlmsg.CodecXML) != nil {
		return
	}

	for {
		if s.isClosed() {
			return
		}
		f, err := xmlmsg.ReadMuxFrame(r)
		if err != nil {
			return
		}
		msg, kind, derr := xmlmsg.DecodeWith(f.Codec, f.Payload)
		if derr != nil {
			if write(f.ID, xmlmsg.NewErrorReply(derr), codec) != nil {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func(id uint64, msg interface{}, kind xmlmsg.Kind) {
			defer s.wg.Done()
			_ = write(id, s.dispatch(msg, kind), codec)
		}(f.ID, msg, kind)
	}
}

// dispatch runs one request through admission control and duplicate
// suppression, then the handler, and always produces a reply message.
func (s *Server) dispatch(msg interface{}, kind xmlmsg.Kind) interface{} {
	if kind == xmlmsg.KindRequest {
		if s.cfg.MaxInflight > 0 {
			depth := int(s.inflight.Add(1))
			if depth > s.cfg.MaxInflight {
				s.inflight.Add(-1)
				return xmlmsg.NewBusy(depth, s.cfg.MaxInflight)
			}
			defer s.inflight.Add(-1)
		}
		req, isReq := msg.(*xmlmsg.Request)
		if s.dedup != nil && isReq && req.ReqID != 0 {
			mode := req.Mode
			if mode == "" {
				mode = xmlmsg.ModeDiscover // empty and explicit discover are one operation
			}
			key := dedupKey{id: req.ReqID, mode: mode}
			e, primary := s.dedup.claim(key)
			if !primary {
				// Duplicate delivery: the original executed (or still
				// is). Hand back its reply rather than re-executing.
				t := time.NewTimer(ExchangeTimeout)
				defer t.Stop()
				select {
				case <-e.done:
					return e.reply
				case <-t.C:
					return xmlmsg.NewErrorReply(fmt.Errorf("transport: duplicate of request %d still executing", req.ReqID))
				}
			}
			reply := s.run(msg, kind)
			s.dedup.finish(key, e, reply)
			return reply
		}
	}
	return s.run(msg, kind)
}

// run invokes the handler and normalises its outcome to a wire reply.
func (s *Server) run(msg interface{}, kind xmlmsg.Kind) interface{} {
	reply, err := s.handler(msg, kind)
	if err != nil {
		return xmlmsg.NewErrorReply(err)
	}
	if reply == nil {
		return xmlmsg.NewErrorReply(fmt.Errorf("no reply for %s", kind))
	}
	return reply
}

// Call performs one request/reply exchange with a peer using the
// default client (pooled connections, bounded retries with backoff; see
// Client). An ErrorReply from the peer is surfaced as a *ExchangeError
// with Op "reply" and is never retried.
func Call(addr string, msg interface{}) (interface{}, xmlmsg.Kind, error) {
	return defaultClient.Call(addr, msg)
}
