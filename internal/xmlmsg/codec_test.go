package xmlmsg

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

func TestMessagesShareOneStream(t *testing.T) {
	var buf bytes.Buffer
	req := NewRequest("cpi", "/bin/cpi", "/m/cpi", "test", 50, "x@y")
	si := NewServiceInfo(Endpoint{"a", 1}, Endpoint{"a", 2}, "SunUltra5", 16, []string{"test"}, 9)
	for i, m := range []interface{}{req, si} {
		payload, err := Encode(CodecXML, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMuxFrame(&buf, MuxFrame{ID: uint64(i), Codec: CodecXML, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	read := func() (interface{}, Kind, error) {
		f, err := ReadMuxFrame(r)
		if err != nil {
			return nil, "", err
		}
		return DecodeWith(f.Codec, f.Payload)
	}
	m1, k1, err := read()
	if err != nil || k1 != KindRequest {
		t.Fatalf("first message: %v %v", k1, err)
	}
	if m1.(*Request).Application.Name != "cpi" {
		t.Fatalf("request content lost: %+v", m1)
	}
	m2, k2, err := read()
	if err != nil || k2 != KindService {
		t.Fatalf("second message: %v %v", k2, err)
	}
	if m2.(*ServiceInfo).Local.HWType != "SunUltra5" {
		t.Fatalf("service content lost: %+v", m2)
	}
	if _, _, err := read(); err != io.EOF {
		t.Fatalf("EOF not surfaced: %v", err)
	}
}

func TestEndpointString(t *testing.T) {
	if got := (Endpoint{Address: "host", Port: 99}).String(); got != "host:99" {
		t.Fatalf("Endpoint.String() = %q", got)
	}
}
