package xmlmsg

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestMuxFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []MuxFrame{
		{ID: 1, Codec: CodecXML, Payload: []byte("<agentgrid/>")},
		{ID: 1<<63 + 7, Codec: CodecBinary, Payload: []byte{1, 2, 3}},
		{ID: 0, Codec: CodecXML, Payload: nil},
	}
	for _, f := range frames {
		if err := WriteMuxFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadMuxFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.Codec != want.Codec || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestMuxFrameRejectsBadInput(t *testing.T) {
	if err := WriteMuxFrame(&bytes.Buffer{}, MuxFrame{Codec: 'z'}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if err := WriteMuxFrame(&bytes.Buffer{}, MuxFrame{Codec: CodecXML, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A stream that does not open with the marker — here the retired
	// digit-prefixed framing — is not a mux frame.
	legacy := strings.NewReader("0000000012<agentgrid/>")
	if _, err := ReadMuxFrame(bufio.NewReader(legacy)); err == nil {
		t.Fatal("digit-prefixed frame read as mux frame")
	}
	// A payload shorter than its header promises.
	var short bytes.Buffer
	_ = WriteMuxFrame(&short, MuxFrame{ID: 1, Codec: CodecXML, Payload: []byte("hello")})
	if _, err := ReadMuxFrame(bufio.NewReader(bytes.NewReader(short.Bytes()[:short.Len()-2]))); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Oversized length in the header.
	head := make([]byte, muxHeaderLen)
	head[0] = MuxMarker
	head[1] = CodecXML
	head[10], head[11], head[12], head[13] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadMuxFrame(bufio.NewReader(bytes.NewReader(head))); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized header err = %v", err)
	}
}

func TestHelloAndBusyXMLRoundTrip(t *testing.T) {
	h := NewHello("xb")
	data, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	got, kind, err := Decode(data)
	if err != nil || kind != KindHello {
		t.Fatalf("decode hello: kind %v err %v", kind, err)
	}
	if got.(*Hello).Codecs != "xb" {
		t.Fatalf("hello round trip: %+v", got)
	}

	b := NewBusy(65, 64)
	data, err = Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, kind, err = Decode(data)
	if err != nil || kind != KindBusy {
		t.Fatalf("decode busy: kind %v err %v", kind, err)
	}
	if bb := got.(*Busy); bb.Depth != 65 || bb.Limit != 64 {
		t.Fatalf("busy round trip: %+v", bb)
	}
}

// binaryCases is the full wire vocabulary; every message must survive the
// binary codec with the exact field values the XML codec would produce.
func binaryCases() []interface{} {
	req := NewWireRequest(9001, "sweep3d", "mpi", 1234.5, "u@example.org", ModeDiscover, []string{"S1", "S9"})
	req.Application.Binary.File = "/bin/sweep3d"
	req.Application.Binary.InputFile = "in.dat"
	si := NewServiceInfo(Endpoint{Address: "10.0.0.1", Port: 7001}, Endpoint{Address: "10.0.0.2", Port: 7002},
		"SGIOrigin2000", 16, []string{"test", "mpi", "pvm"}, 321)
	si.Local.Name = "S3"
	return []interface{}{
		si,
		req,
		NewResult("fft", 12, "S4", 8, 10, 20, 30, "u@example.org"),
		NewServiceQuery(),
		NewResultsQuery("someone@grid"),
		NewDispatchAck("S7", 42, 9001, 99.5, 3, true),
		NewErrorReply(errString("scheduler full")),
		NewResultSet([]TaskResult{
			{App: "improc", TaskID: 1, Resource: "S1", NProc: 4, Start: FormatVirtual(1), End: FormatVirtual(2), Deadline: FormatVirtual(3), Met: true, Done: true, Email: "a@b"},
			{App: "closure", TaskID: 2, Resource: "S2", NProc: 1, Start: FormatVirtual(4), End: FormatVirtual(5), Deadline: FormatVirtual(6)},
		}),
		NewResultSet(nil),
		NewHello("xb"),
		NewBusy(100, 64),
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestBinaryCodecMatchesXMLCodec(t *testing.T) {
	for i, msg := range binaryCases() {
		xdata, err := Marshal(msg)
		if err != nil {
			t.Fatalf("case %d: xml marshal: %v", i, err)
		}
		viaXML, xkind, err := Decode(xdata)
		if err != nil {
			t.Fatalf("case %d: xml decode: %v", i, err)
		}
		bdata, err := MarshalBinary(msg)
		if err != nil {
			t.Fatalf("case %d: binary marshal: %v", i, err)
		}
		viaBin, bkind, err := UnmarshalBinary(bdata)
		if err != nil {
			t.Fatalf("case %d: binary unmarshal: %v", i, err)
		}
		if xkind != bkind {
			t.Fatalf("case %d: kind %q via xml, %q via binary", i, xkind, bkind)
		}
		if !reflect.DeepEqual(viaXML, viaBin) {
			t.Fatalf("case %d (%s): codecs disagree\nxml:    %#v\nbinary: %#v", i, xkind, viaXML, viaBin)
		}
		if len(bdata) >= len(xdata) {
			t.Errorf("case %d (%s): binary form (%d bytes) not smaller than XML (%d bytes)", i, xkind, len(bdata), len(xdata))
		}
	}
}

func TestBinaryCodecAcceptsPointers(t *testing.T) {
	q := NewServiceQuery()
	a, err := MarshalBinary(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalBinary(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pointer and value forms encode differently")
	}
}

func TestBinaryCodecRejectsGarbage(t *testing.T) {
	if _, _, err := UnmarshalBinary(nil); err == nil {
		t.Fatal("empty message accepted")
	}
	if _, _, err := UnmarshalBinary([]byte{200}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Truncate every valid encoding at every length: must error, not panic.
	for i, msg := range binaryCases() {
		data, err := MarshalBinary(msg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n < len(data); n++ {
			if _, _, err := UnmarshalBinary(data[:n]); err == nil {
				t.Fatalf("case %d: truncation to %d/%d bytes accepted", i, n, len(data))
			}
		}
		// Trailing junk after a complete message is a protocol error.
		if _, _, err := UnmarshalBinary(append(append([]byte{}, data...), 0)); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
	}
	if _, err := MarshalBinary(struct{}{}); err == nil {
		t.Fatal("unknown type encoded")
	}
}

// TestPortalRequestXMLBytesPinned pins the portal's Fig. 6 output: the
// exact bytes gridsubmit -dry-run prints. The binary codec and the mux
// framing are connection-level negotiations — they must never change this
// document.
func TestPortalRequestXMLBytesPinned(t *testing.T) {
	req := NewRequest("sweep3d", "", "sweep3d", "test", 60, "user@example.org")
	data, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := `<agentgrid type="request">
  <application>
    <name>sweep3d</name>
    <binary>
      <file></file>
    </binary>
    <performance>
      <datatype>pacemodel</datatype>
      <modelname>sweep3d</modelname>
    </performance>
  </application>
  <requirement>
    <environment>test</environment>
    <deadline>Thu Nov 15 04:44:10 2001</deadline>
  </requirement>
  <email>user@example.org</email>
  <visited></visited>
</agentgrid>
`
	if string(data) != want {
		t.Fatalf("portal XML drifted:\n got: %q\nwant: %q", data, want)
	}
}
