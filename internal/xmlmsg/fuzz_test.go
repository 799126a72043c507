package xmlmsg

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSeeds is the full wire vocabulary plus the two documents the paper
// prints — the Fig. 5 service advertisement and the Fig. 6 portal request
// whose bytes TestPortalRequestXMLBytesPinned pins.
func fuzzSeeds() []interface{} {
	return append(binaryCases(),
		NewServiceInfo(
			Endpoint{Address: "gem.dcs.warwick.ac.uk", Port: 1000},
			Endpoint{Address: "gem.dcs.warwick.ac.uk", Port: 10000},
			"SunUltra10", 16, []string{"mpi", "pvm", "test"}, 600),
		NewRequest("sweep3d", "", "sweep3d", "test", 60, "user@example.org"),
	)
}

// FuzzReadMuxFrame feeds the frame reader a hostile byte stream: it must
// never panic, never allocate past MaxFrame whatever length the header
// claims, and a frame it does accept must be exactly the bytes consumed.
func FuzzReadMuxFrame(f *testing.F) {
	for i, m := range fuzzSeeds() {
		for _, c := range []byte{CodecXML, CodecBinary} {
			payload, err := Encode(c, m)
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteMuxFrame(&buf, MuxFrame{ID: uint64(i), Codec: c, Payload: payload}); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte("0000000012<agentgrid/>"))                             // the retired digit-prefixed framing
	f.Add([]byte("Mx\x00\x00\x00\x00\x00\x00\x00\x01\xff\xff\xff\xff")) // a 4 GiB length claim
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadMuxFrame(r)
		runtime.ReadMemStats(&after)
		// The reader's own buffer and header are a few KiB; everything
		// beyond that must be the payload, which MaxFrame bounds.
		if got := after.TotalAlloc - before.TotalAlloc; got > MaxFrame+64<<10 {
			t.Fatalf("ReadMuxFrame allocated %d bytes on a %d-byte input (MaxFrame %d)", got, len(data), MaxFrame)
		}
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxFrame || !ValidCodec(fr.Codec) {
			t.Fatalf("accepted frame with %d-byte payload, codec %q", len(fr.Payload), fr.Codec)
		}
		var back bytes.Buffer
		if err := WriteMuxFrame(&back, fr); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, back.Bytes()) {
			t.Fatalf("accepted frame re-encodes to different bytes than were read")
		}
	})
}

// FuzzDecodeWith feeds both payload decoders hostile bytes: neither may
// panic, and a value that decodes must re-encode and decode to itself —
// under the codec that carried it always, and under the other codec
// wherever that codec can carry the value at all. The two domains differ
// in four documented ways, which the oracle spells out instead of
// hiding: the binary codec has no negative integers (Encode must say
// so), carries raw bytes in strings where XML carries only legal XML
// characters, and drops an XML namespace; the XML codec omits an empty
// entry of a visited list (see canon).
func FuzzDecodeWith(f *testing.F) {
	for _, m := range fuzzSeeds() {
		for _, c := range []byte{CodecXML, CodecBinary} {
			payload, err := Encode(c, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(c, payload)
		}
	}
	f.Add(byte('z'), []byte("<agentgrid/>"))
	f.Add(byte(CodecXML), []byte(`<agentgrid type="request"><visited><agent></agent></visited></agentgrid>`))
	// A busy reply whose depth varint is 2^64-1: once decoded to -1.
	f.Add(byte(CodecBinary), []byte{binTagBusy, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0})
	f.Fuzz(func(t *testing.T, codec byte, data []byte) {
		v, kind, err := DecodeWith(codec, data)
		if err != nil {
			return
		}
		for _, c := range []byte{CodecXML, CodecBinary} {
			if c != codec && !portable(reflect.ValueOf(v)) {
				continue
			}
			enc, err := Encode(c, v)
			if err != nil {
				if c == CodecBinary && codec == CodecXML && strings.Contains(err.Error(), "negative integer") {
					continue
				}
				t.Fatalf("decoded %s (%T via %q) does not re-encode with %q: %v", kind, v, codec, c, err)
			}
			back, backKind, err := DecodeWith(c, enc)
			if err != nil {
				t.Fatalf("re-encoded %s (via %q) does not decode with %q: %v", kind, codec, c, err)
			}
			if backKind != kind || !reflect.DeepEqual(canon(v), canon(back)) {
				t.Fatalf("%s decoded via %q changed across a %q round trip\n before: %#v\n after:  %#v", kind, codec, c, v, back)
			}
		}
	})
}

// canon drops the empty entries of a visited list, which the XML form
// (visited>agent,omitempty) does not write: an empty agent name names
// nobody, so the two spellings are one message.
func canon(v interface{}) interface{} {
	dropEmpty := func(in []string) []string {
		var out []string
		for _, s := range in {
			if s != "" {
				out = append(out, s)
			}
		}
		return out
	}
	switch m := v.(type) {
	case *Request:
		c := *m
		c.Visited = dropEmpty(m.Visited)
		return &c
	case *Reserve:
		c := *m
		c.Visited = dropEmpty(m.Visited)
		return &c
	}
	return v
}

// portable reports whether both codecs can carry the value: no XML
// namespace on the envelope, and strings made only of the characters an
// XML document round-trips (no carriage return, which XML line-end
// normalisation rewrites on the way in).
func portable(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Ptr:
		return v.IsNil() || portable(v.Elem())
	case reflect.Struct:
		if name, ok := v.Interface().(xml.Name); ok {
			return name == agName
		}
		for i := 0; i < v.NumField(); i++ {
			if !portable(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !portable(v.Index(i)) {
				return false
			}
		}
	case reflect.String:
		s := v.String()
		if !utf8.ValidString(s) {
			return false
		}
		for _, r := range s {
			if r == '\r' || r == utf8.RuneError || r < 0x20 && r != '\t' && r != '\n' || r == 0xFFFE || r == 0xFFFF {
				return false
			}
		}
	}
	return true
}
