package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmlmsg"
)

func echoHandler(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
	switch kind {
	case xmlmsg.KindQuery:
		return xmlmsg.NewServiceInfo(
			xmlmsg.Endpoint{Address: "x", Port: 1},
			xmlmsg.Endpoint{Address: "x", Port: 2},
			"SunUltra5", 16, []string{"test"}, 42), nil
	case xmlmsg.KindRequest:
		return xmlmsg.NewDispatchAck("S1", 7, 55, 99, 1, false), nil
	}
	return nil, fmt.Errorf("boom: %v", kind)
}

func TestServeAndCall(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reply, kind, err := Call(s.Addr(), xmlmsg.NewServiceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindService {
		t.Fatalf("kind = %v", kind)
	}
	si := reply.(*xmlmsg.ServiceInfo)
	if si.Local.HWType != "SunUltra5" {
		t.Fatalf("service info %+v", si)
	}
	ft, err := si.FreetimeSeconds()
	if err != nil || ft != 42 {
		t.Fatalf("freetime %v err %v", ft, err)
	}
}

func TestCallRequestAck(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := xmlmsg.NewWireRequest(55, "fft", "test", 120, "u@g", xmlmsg.ModeDiscover, []string{"S9"})
	reply, kind, err := Call(s.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	if kind != xmlmsg.KindDispatch {
		t.Fatalf("kind = %v", kind)
	}
	ack := reply.(*xmlmsg.DispatchAck)
	if ack.Resource != "S1" || ack.TaskID != 7 {
		t.Fatalf("ack %+v", ack)
	}
	if eta, err := ack.EtaSeconds(); err != nil || eta != 99 {
		t.Fatalf("eta %v err %v", eta, err)
	}
}

func TestHandlerErrorSurfacesAsRemoteError(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Results are not handled by the echo handler -> error reply.
	res := xmlmsg.NewResult("fft", 1, "S1", 4, 0, 10, 20, "u@g")
	_, _, err = Call(s.Addr(), res)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("remote error not surfaced: %v", err)
	}
}

func TestCallToClosedServer(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Call(addr, xmlmsg.NewServiceQuery()); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := Call(s.Addr(), xmlmsg.NewServiceQuery()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeNilHandler(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestDigitPrefixedConnIsDropped sends a well-formed frame of the
// retired digit-prefixed framing: the server must hang up without
// writing a reply and without running the handler.
func TestDigitPrefixedConnIsDropped(t *testing.T) {
	var handled atomic.Int64
	s, err := Serve("127.0.0.1:0", func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		handled.Add(1)
		return echoHandler(msg, kind)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	doc, err := xmlmsg.Marshal(xmlmsg.NewServiceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "%010d%s", len(doc), doc); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server hangs up with the frame body unread, so the close may
	// surface as a reset rather than a clean EOF; only a timeout means
	// the connection was left open.
	reply, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if len(reply) != 0 {
		t.Fatalf("server replied %q to a digit-prefixed frame", reply)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a digit-prefixed frame", n)
	}
}
