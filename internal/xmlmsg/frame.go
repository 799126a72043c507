package xmlmsg

import (
	"bufio"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
)

// Framing. Every message on a stream transport travels in one mux
// frame, whose header lets many exchanges share one keep-alive
// connection and replies return out of order:
//
//	offset  size  field
//	0       1     marker 'M'
//	1       1     codec: 'x' XML, 'b' compact binary
//	2       8     exchange ID, big-endian uint64
//	10      4     payload length, big-endian uint32
//	14      n     payload (message encoded with the frame's codec)
//
// A stream that does not open with the marker is not this protocol, and
// ReadMuxFrame rejects it at the header.
const (
	// MuxMarker is the first byte of a multiplexed frame.
	MuxMarker = 'M'
	// CodecXML identifies the indented agentgrid XML payload encoding.
	CodecXML = 'x'
	// CodecBinary identifies the compact binary payload encoding.
	CodecBinary = 'b'
	// muxHeaderLen is the fixed mux frame header size.
	muxHeaderLen = 14
	// MaxFrame bounds a single message payload; anything larger is a
	// protocol error.
	MaxFrame = 1 << 20
)

// ValidCodec reports whether c names a payload encoding this package can
// speak.
func ValidCodec(c byte) bool { return c == CodecXML || c == CodecBinary }

// MuxFrame is one multiplexed message: the exchange ID ties a reply back
// to its request, the codec says how Payload is encoded.
type MuxFrame struct {
	ID      uint64
	Codec   byte
	Payload []byte
}

// WriteMuxFrame writes one multiplexed frame to w in a single Write call,
// so concurrent writers serialised by a mutex never interleave partial
// frames.
func WriteMuxFrame(w io.Writer, f MuxFrame) error {
	if !ValidCodec(f.Codec) {
		return fmt.Errorf("xmlmsg: write mux frame: unknown codec %q", f.Codec)
	}
	if len(f.Payload) > MaxFrame {
		return fmt.Errorf("xmlmsg: mux frame of %d bytes exceeds limit %d", len(f.Payload), MaxFrame)
	}
	buf := make([]byte, muxHeaderLen+len(f.Payload))
	buf[0] = MuxMarker
	buf[1] = f.Codec
	binary.BigEndian.PutUint64(buf[2:10], f.ID)
	binary.BigEndian.PutUint32(buf[10:14], uint32(len(f.Payload)))
	copy(buf[muxHeaderLen:], f.Payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("xmlmsg: write mux frame: %w", err)
	}
	return nil
}

// ReadMuxFrame reads one multiplexed frame from r. io.EOF passes through
// untouched when the stream ends cleanly between frames.
func ReadMuxFrame(r *bufio.Reader) (MuxFrame, error) {
	head := make([]byte, muxHeaderLen)
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return MuxFrame{}, err
		}
		return MuxFrame{}, fmt.Errorf("xmlmsg: read mux header: %w", err)
	}
	if head[0] != MuxMarker {
		return MuxFrame{}, fmt.Errorf("xmlmsg: not a mux frame (marker %q)", head[0])
	}
	f := MuxFrame{ID: binary.BigEndian.Uint64(head[2:10]), Codec: head[1]}
	if !ValidCodec(f.Codec) {
		return MuxFrame{}, fmt.Errorf("xmlmsg: mux frame with unknown codec %q", f.Codec)
	}
	n := binary.BigEndian.Uint32(head[10:14])
	if n > MaxFrame {
		return MuxFrame{}, fmt.Errorf("xmlmsg: mux frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	f.Payload = make([]byte, n)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return MuxFrame{}, fmt.Errorf("xmlmsg: short mux frame: %w", err)
	}
	return f, nil
}

// Encode renders a message with the given codec.
func Encode(codec byte, v interface{}) ([]byte, error) {
	switch codec {
	case CodecXML:
		return Marshal(v)
	case CodecBinary:
		return MarshalBinary(v)
	}
	return nil, fmt.Errorf("xmlmsg: encode with unknown codec %q", codec)
}

// DecodeWith parses a payload encoded with the given codec.
func DecodeWith(codec byte, data []byte) (interface{}, Kind, error) {
	switch codec {
	case CodecXML:
		return Decode(data)
	case CodecBinary:
		return UnmarshalBinary(data)
	}
	return nil, "", fmt.Errorf("xmlmsg: decode with unknown codec %q", codec)
}

// Hello is the per-connection codec negotiation message: the first
// exchange on a multiplexed connection. Codecs lists the encodings the
// client can speak ("xb"); the reply's Codecs is the single codec the
// server chose for the rest of the connection. XML stays the wire default:
// a server that does not allow the binary codec answers "x" and both
// sides fall back without dropping the connection.
type Hello struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"` // always "hello"
	Codecs  string   `xml:"codecs"`
}

// NewHello builds a negotiation message offering the given codecs.
func NewHello(codecs string) Hello { return Hello{Type: "hello", Codecs: codecs} }

// KindHello identifies a Hello on the wire.
const KindHello Kind = "hello"

// Busy is the typed admission-control reply: the server's ingress queue
// crossed its bound, so this exchange was shed before reaching the
// handler. Unlike an ErrorReply it is a transport-level, retryable
// condition — the peer is alive, just saturated.
type Busy struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"` // always "busy"
	Depth   int      `xml:"depth"`     // in-flight exchanges at shed time
	Limit   int      `xml:"limit"`     // the admission bound that tripped
}

// NewBusy builds an admission-control shed reply.
func NewBusy(depth, limit int) Busy { return Busy{Type: "busy", Depth: depth, Limit: limit} }

// KindBusy identifies a Busy reply on the wire.
const KindBusy Kind = "busy"

// decodeFrameKinds handles the mux-plumbing kinds in the Decode switch.
func decodeFrameKinds(env envelope, data []byte) (interface{}, Kind, bool, error) {
	switch Kind(env.Type) {
	case KindHello:
		var m Hello
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", true, fmt.Errorf("xmlmsg: decode hello: %w", err)
		}
		return &m, KindHello, true, nil
	case KindBusy:
		var m Busy
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", true, fmt.Errorf("xmlmsg: decode busy: %w", err)
		}
		return &m, KindBusy, true, nil
	}
	return nil, "", false, nil
}
