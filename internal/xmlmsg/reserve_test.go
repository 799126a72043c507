package xmlmsg

import (
	"reflect"
	"testing"
)

func sampleReserve() Reserve {
	return Reserve{
		Type:     "reserve",
		Action:   "hold",
		ResvID:   42,
		ReqID:    7,
		Resource: "S3",
		Holder:   "user@grid",
		Nodes:    4,
		Earliest: FormatSeconds(120.5),
		Duration: FormatSeconds(300),
		Mask:     FormatMask(0b1011),
		Start:    FormatSeconds(150.25),
		End:      FormatSeconds(450.25),
		TTL:      FormatSeconds(30),
		Model:    "fft",
		Visited:  []string{"S1", "S2"},
	}
}

func TestReserveXMLRoundTrip(t *testing.T) {
	in := sampleReserve()
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	back, kind, err := Decode(data)
	if err != nil || kind != KindReserve {
		t.Fatalf("decode: kind=%s err=%v", kind, err)
	}
	got := back.(*Reserve)
	in.XMLName = got.XMLName
	if !reflect.DeepEqual(*got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", *got, in)
	}
	if m, _ := ParseMask(got.Mask); m != 0b1011 {
		t.Fatalf("mask = %b", m)
	}
	if s, _ := ParseSeconds(got.Start); s != 150.25 {
		t.Fatalf("start = %g", s)
	}
}

func TestReserveAckXMLRoundTrip(t *testing.T) {
	in := NewReserveAck(9, []QuoteEntry{
		{Resource: "S1", Mask: FormatMask(3), Start: FormatSeconds(100), End: FormatSeconds(200)},
		{Resource: "S2", Mask: FormatMask(12), Start: FormatSeconds(150), End: FormatSeconds(250)},
	})
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	back, kind, err := Decode(data)
	if err != nil || kind != KindReserveAck {
		t.Fatalf("decode: kind=%s err=%v", kind, err)
	}
	got := back.(*ReserveAck)
	in.XMLName = got.XMLName
	if !reflect.DeepEqual(*got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", *got, in)
	}
}

// TestReserveBinaryMatchesXML: a reservation negotiated over mixed-codec
// links is the same reservation.
func TestReserveBinaryMatchesXML(t *testing.T) {
	checkCodecsAgree(t, []interface{}{
		sampleReserve(),
		NewReserveAck(0, []QuoteEntry{{Resource: "S1", Mask: "f", Start: "0", End: "10"}}),
		NewReserveAck(3, nil),
	})
}

// Pinned wire bytes: the XML serialisation of a reserve message is
// interface, not implementation — tools in other languages parse it.
func TestReserveXMLBytesPinned(t *testing.T) {
	data, err := Marshal(Reserve{
		Type:     "reserve",
		Action:   "quote",
		Nodes:    2,
		Earliest: FormatSeconds(100),
		Duration: FormatSeconds(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The empty <visited> wrapper matches how a Fig. 6 request with no
	// visited agents marshals (encoding/xml keeps the nested-path parent).
	want := `<agentgrid type="reserve" action="quote">
  <nodes>2</nodes>
  <earliest>100</earliest>
  <duration>60</duration>
  <visited></visited>
</agentgrid>
`
	if string(data) != want {
		t.Fatalf("wire bytes changed:\n got %q\nwant %q", data, want)
	}
}

func TestFormatSecondsExactRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 0.1, 1.0 / 3.0, 12345.6789, 1e-9, 9e15} {
		got, err := ParseSeconds(FormatSeconds(v))
		if err != nil || got != v {
			t.Fatalf("round trip of %v: got %v err %v", v, got, err)
		}
	}
}
