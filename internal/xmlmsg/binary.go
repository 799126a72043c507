package xmlmsg

import (
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"math"
)

// Compact binary codec, negotiated per connection alongside the XML wire
// default (see Hello). The encoding is a one-byte message tag followed by
// the struct fields in declaration order: uvarint for non-negative
// integers, length-prefixed UTF-8 for strings, one byte for bools,
// IEEE-754 bits for floats. Timestamps stay the ANSIC strings of the XML
// schema so a message round-trips bit-identically through either codec —
// the binary form is a compression of the XML document, not a different
// message.

// Message tags. New kinds append; existing tags never change, so a mixed
// deployment can negotiate the codec safely.
const (
	binTagService       byte = 1
	binTagRequest       byte = 2
	binTagResult        byte = 3
	binTagQuery         byte = 4
	binTagAck           byte = 5
	binTagError         byte = 6
	binTagResults       byte = 7
	binTagHello         byte = 8
	binTagBusy          byte = 9
	binTagReserve       byte = 10
	binTagReserveAck    byte = 11
	binTagMembership    byte = 12
	binTagMembershipAck byte = 13
)

type binWriter struct{ buf []byte }

func (w *binWriter) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) i(v int) error {
	if v < 0 {
		return fmt.Errorf("xmlmsg: binary codec: negative integer %d", v)
	}
	w.u64(uint64(v))
	return nil
}
func (w *binWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *binWriter) strs(ss []string) {
	w.u64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}
func (w *binWriter) boolean(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

type binReader struct {
	buf []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("xmlmsg: binary codec: truncated %s", what)
	}
}

func (r *binReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// i reads a non-negative integer. A varint past MaxInt would wrap to a
// negative int — a value the encoder refuses to write — so it is a
// protocol error here.
func (r *binReader) i(what string) int {
	v := r.u64(what)
	if v > math.MaxInt {
		if r.err == nil {
			r.err = fmt.Errorf("xmlmsg: binary codec: %s overflows int", what)
		}
		return 0
	}
	return int(v)
}

func (r *binReader) str(what string) string {
	n := r.u64(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *binReader) strs(what string) []string {
	n := r.u64(what)
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) { // each entry needs >= 1 byte of length
		r.fail(what)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.str(what))
	}
	return out
}

func (r *binReader) boolean(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.fail(what)
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b != 0
}

// agName is the XMLName value encoding/xml sets when decoding an
// agentgrid document; the binary decoder sets the same so a message is
// identical whichever codec carried it.
var agName = xml.Name{Local: "agentgrid"}

// MarshalBinary encodes a message with the compact binary codec. Both
// value and pointer forms of every wire type are accepted, mirroring
// Marshal.
func MarshalBinary(v interface{}) ([]byte, error) {
	w := &binWriter{buf: make([]byte, 0, 128)}
	switch m := deref(v).(type) {
	case ServiceInfo:
		w.buf = append(w.buf, binTagService)
		w.str(m.Agent.Address)
		if err := w.i(m.Agent.Port); err != nil {
			return nil, err
		}
		w.str(m.Local.Name)
		w.str(m.Local.Address)
		if err := w.i(m.Local.Port); err != nil {
			return nil, err
		}
		w.str(m.Local.HWType)
		if err := w.i(m.Local.NProc); err != nil {
			return nil, err
		}
		w.strs(m.Local.Environments)
		w.str(m.Local.Freetime)
	case Request:
		w.buf = append(w.buf, binTagRequest)
		w.str(m.Mode)
		w.u64(m.ReqID)
		w.str(m.Application.Name)
		w.str(m.Application.Binary.File)
		w.str(m.Application.Binary.InputFile)
		w.str(m.Application.Performance.DataType)
		w.str(m.Application.Performance.ModelName)
		w.str(m.Requirement.Environment)
		w.str(m.Requirement.Deadline)
		w.str(m.Email)
		w.strs(m.Visited)
	case Result:
		w.buf = append(w.buf, binTagResult)
		w.str(m.AppName)
		if err := w.i(m.TaskID); err != nil {
			return nil, err
		}
		w.str(m.Resource)
		if err := w.i(m.NProc); err != nil {
			return nil, err
		}
		w.str(m.Start)
		w.str(m.End)
		w.str(m.Deadline)
		w.boolean(m.MetDeadline)
		w.str(m.Email)
	case Query:
		w.buf = append(w.buf, binTagQuery)
		w.str(m.What)
		w.str(m.Email)
	case DispatchAck:
		w.buf = append(w.buf, binTagAck)
		w.str(m.Resource)
		if err := w.i(m.TaskID); err != nil {
			return nil, err
		}
		w.u64(m.ReqID)
		w.str(m.Eta)
		if err := w.i(m.Hops); err != nil {
			return nil, err
		}
		w.boolean(m.Fallback)
	case ErrorReply:
		w.buf = append(w.buf, binTagError)
		w.str(m.Message)
	case ResultSet:
		w.buf = append(w.buf, binTagResults)
		w.u64(uint64(len(m.Tasks)))
		for _, t := range m.Tasks {
			w.str(t.App)
			if err := w.i(t.TaskID); err != nil {
				return nil, err
			}
			w.str(t.Resource)
			if err := w.i(t.NProc); err != nil {
				return nil, err
			}
			w.str(t.Start)
			w.str(t.End)
			w.str(t.Deadline)
			w.boolean(t.Met)
			w.boolean(t.Done)
			w.str(t.Email)
		}
	case Reserve:
		w.buf = append(w.buf, binTagReserve)
		w.str(m.Action)
		w.u64(m.ResvID)
		w.u64(m.ReqID)
		w.str(m.Resource)
		w.str(m.Holder)
		if err := w.i(m.Nodes); err != nil {
			return nil, err
		}
		w.str(m.Earliest)
		w.str(m.Duration)
		w.str(m.Mask)
		w.str(m.Start)
		w.str(m.End)
		w.str(m.TTL)
		w.str(m.Model)
		w.strs(m.Visited)
	case ReserveAck:
		w.buf = append(w.buf, binTagReserveAck)
		if err := w.i(m.TaskID); err != nil {
			return nil, err
		}
		w.u64(uint64(len(m.Quotes)))
		for _, q := range m.Quotes {
			w.str(q.Resource)
			w.str(q.Mask)
			w.str(q.Start)
			w.str(q.End)
		}
	case Membership:
		w.buf = append(w.buf, binTagMembership)
		w.str(m.Op)
		w.str(m.Agent)
		w.str(m.Address)
		if err := w.i(m.Port); err != nil {
			return nil, err
		}
	case MembershipAck:
		w.buf = append(w.buf, binTagMembershipAck)
		w.str(m.Op)
		w.str(m.Upper)
	case Hello:
		w.buf = append(w.buf, binTagHello)
		w.str(m.Codecs)
	case Busy:
		w.buf = append(w.buf, binTagBusy)
		if err := w.i(m.Depth); err != nil {
			return nil, err
		}
		if err := w.i(m.Limit); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("xmlmsg: binary codec cannot encode %T", v)
	}
	return w.buf, nil
}

// deref normalises the pointer forms Decode hands out back to values.
func deref(v interface{}) interface{} {
	switch m := v.(type) {
	case *ServiceInfo:
		return *m
	case *Request:
		return *m
	case *Result:
		return *m
	case *Query:
		return *m
	case *DispatchAck:
		return *m
	case *ErrorReply:
		return *m
	case *ResultSet:
		return *m
	case *Hello:
		return *m
	case *Busy:
		return *m
	case *Reserve:
		return *m
	case *ReserveAck:
		return *m
	case *Membership:
		return *m
	case *MembershipAck:
		return *m
	}
	return v
}

// UnmarshalBinary decodes a compact binary message, returning the same
// pointer types and Kind that Decode returns for the XML form.
func UnmarshalBinary(data []byte) (interface{}, Kind, error) {
	if len(data) == 0 {
		return nil, "", fmt.Errorf("xmlmsg: empty binary message")
	}
	r := &binReader{buf: data[1:]}
	var (
		out  interface{}
		kind Kind
	)
	switch data[0] {
	case binTagService:
		m := &ServiceInfo{XMLName: agName, Type: "service"}
		m.Agent.Address = r.str("service agent address")
		m.Agent.Port = r.i("service agent port")
		m.Local.Name = r.str("service name")
		m.Local.Address = r.str("service address")
		m.Local.Port = r.i("service port")
		m.Local.HWType = r.str("service hwtype")
		m.Local.NProc = r.i("service nproc")
		m.Local.Environments = r.strs("service environments")
		m.Local.Freetime = r.str("service freetime")
		out, kind = m, KindService
	case binTagRequest:
		m := &Request{XMLName: agName, Type: "request"}
		m.Mode = r.str("request mode")
		m.ReqID = r.u64("request reqid")
		m.Application.Name = r.str("request app name")
		m.Application.Binary.File = r.str("request binary file")
		m.Application.Binary.InputFile = r.str("request input file")
		m.Application.Performance.DataType = r.str("request datatype")
		m.Application.Performance.ModelName = r.str("request modelname")
		m.Requirement.Environment = r.str("request environment")
		m.Requirement.Deadline = r.str("request deadline")
		m.Email = r.str("request email")
		m.Visited = r.strs("request visited")
		out, kind = m, KindRequest
	case binTagResult:
		m := &Result{XMLName: agName, Type: "result"}
		m.AppName = r.str("result app")
		m.TaskID = r.i("result task id")
		m.Resource = r.str("result resource")
		m.NProc = r.i("result nproc")
		m.Start = r.str("result start")
		m.End = r.str("result end")
		m.Deadline = r.str("result deadline")
		m.MetDeadline = r.boolean("result met")
		m.Email = r.str("result email")
		out, kind = m, KindResult
	case binTagQuery:
		m := &Query{XMLName: agName, Type: "query"}
		m.What = r.str("query what")
		m.Email = r.str("query email")
		out, kind = m, KindQuery
	case binTagAck:
		m := &DispatchAck{XMLName: agName, Type: "dispatch"}
		m.Resource = r.str("ack resource")
		m.TaskID = r.i("ack task id")
		m.ReqID = r.u64("ack reqid")
		m.Eta = r.str("ack eta")
		m.Hops = r.i("ack hops")
		m.Fallback = r.boolean("ack fallback")
		out, kind = m, KindDispatch
	case binTagError:
		m := &ErrorReply{XMLName: agName, Type: "error"}
		m.Message = r.str("error message")
		out, kind = m, KindError
	case binTagResults:
		m := &ResultSet{XMLName: agName, Type: "results"}
		n := r.u64("results count")
		if n > uint64(len(r.buf)) { // each task needs >= 1 byte
			r.fail("results count")
			n = 0
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var t TaskResult
			t.App = r.str("task app")
			t.TaskID = r.i("task id")
			t.Resource = r.str("task resource")
			t.NProc = r.i("task nproc")
			t.Start = r.str("task start")
			t.End = r.str("task end")
			t.Deadline = r.str("task deadline")
			t.Met = r.boolean("task met")
			t.Done = r.boolean("task done")
			t.Email = r.str("task email")
			m.Tasks = append(m.Tasks, t)
		}
		out, kind = m, KindResults
	case binTagReserve:
		m := &Reserve{XMLName: agName, Type: "reserve"}
		m.Action = r.str("reserve action")
		m.ResvID = r.u64("reserve resvid")
		m.ReqID = r.u64("reserve reqid")
		m.Resource = r.str("reserve resource")
		m.Holder = r.str("reserve holder")
		m.Nodes = r.i("reserve nodes")
		m.Earliest = r.str("reserve earliest")
		m.Duration = r.str("reserve duration")
		m.Mask = r.str("reserve mask")
		m.Start = r.str("reserve start")
		m.End = r.str("reserve end")
		m.TTL = r.str("reserve ttl")
		m.Model = r.str("reserve model")
		m.Visited = r.strs("reserve visited")
		out, kind = m, KindReserve
	case binTagReserveAck:
		m := &ReserveAck{XMLName: agName, Type: "reserveack"}
		m.TaskID = r.i("reserve ack task id")
		n := r.u64("reserve ack quote count")
		if n > uint64(len(r.buf)) { // each quote needs >= 1 byte
			r.fail("reserve ack quote count")
			n = 0
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var q QuoteEntry
			q.Resource = r.str("quote resource")
			q.Mask = r.str("quote mask")
			q.Start = r.str("quote start")
			q.End = r.str("quote end")
			m.Quotes = append(m.Quotes, q)
		}
		out, kind = m, KindReserveAck
	case binTagMembership:
		m := &Membership{XMLName: agName, Type: "membership"}
		m.Op = r.str("membership op")
		m.Agent = r.str("membership agent")
		m.Address = r.str("membership address")
		m.Port = r.i("membership port")
		out, kind = m, KindMembership
	case binTagMembershipAck:
		m := &MembershipAck{XMLName: agName, Type: "membershipack"}
		m.Op = r.str("membership ack op")
		m.Upper = r.str("membership ack upper")
		out, kind = m, KindMembershipAck
	case binTagHello:
		m := &Hello{XMLName: agName, Type: "hello"}
		m.Codecs = r.str("hello codecs")
		out, kind = m, KindHello
	case binTagBusy:
		m := &Busy{XMLName: agName, Type: "busy"}
		m.Depth = r.i("busy depth")
		m.Limit = r.i("busy limit")
		out, kind = m, KindBusy
	default:
		return nil, "", fmt.Errorf("xmlmsg: unknown binary tag %d", data[0])
	}
	if r.err != nil {
		return nil, "", r.err
	}
	if len(r.buf) != 0 {
		return nil, "", fmt.Errorf("xmlmsg: %d trailing bytes after binary %s", len(r.buf), kind)
	}
	return out, kind, nil
}
