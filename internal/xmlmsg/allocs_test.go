//go:build !race

package xmlmsg

import "testing"

// TestDecodeXMLAllocs: decoding the bench probe's wire request and its
// dispatch ack parses each document once; a second pass to read the
// root's type attribute would add about 220 objects to the pair's ~260.
// (Not under -race, whose runtime allocates on its own.)
func TestDecodeXMLAllocs(t *testing.T) {
	var docs [][]byte
	for _, m := range []interface{}{
		NewWireRequest(42, "sweep3d", "test", 1234.5, "bench@grid", ModeDiscover, []string{"S12", "S4"}),
		NewDispatchAck("S1", 17, 42, 1300, 2, false),
	} {
		data, err := Encode(CodecXML, m)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	got := testing.AllocsPerRun(100, func() {
		for _, data := range docs {
			if _, _, err := DecodeWith(CodecXML, data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got > 280 {
		t.Fatalf("decoding a request and its ack allocates %.0f objects, want at most 280", got)
	}
}
