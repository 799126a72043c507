package xmlmsg

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
)

// Kind discriminates the agentgrid message types on the wire: it is the
// type attribute of the XML document.
type Kind string

// Message kinds, one per wire type.
const (
	KindService       Kind = "service"       // ServiceInfo, the Fig. 5 advert
	KindRequest       Kind = "request"       // Request, the Fig. 6 submission
	KindResult        Kind = "result"        // Result
	KindQuery         Kind = "query"         // Query
	KindDispatch      Kind = "dispatch"      // DispatchAck
	KindError         Kind = "error"         // ErrorReply
	KindResults       Kind = "results"       // ResultSet
	KindHello         Kind = "hello"         // Hello
	KindBusy          Kind = "busy"          // Busy
	KindReserve       Kind = "reserve"       // Reserve
	KindReserveAck    Kind = "reserveack"    // ReserveAck
	KindMembership    Kind = "membership"    // Membership
	KindMembershipAck Kind = "membershipack" // MembershipAck
)

// message is a wire type. Its fields method lists its binary fields in
// wire order (binary.go).
type message interface{ fields(*binCodec) }

// entry declares one wire kind: its binary tag and a constructor of the
// pointer form that both decoders fill and return.
type entry struct {
	kind Kind
	tag  byte
	new  func() message
}

// table is the wire vocabulary, one entry per kind. Tags are written out,
// never derived: a new kind takes a new tag and an existing tag never
// changes, so a mixed deployment can negotiate the binary codec safely.
var table = []entry{
	{KindService, 1, func() message { return &ServiceInfo{XMLName: agName, Type: "service"} }},
	{KindRequest, 2, func() message { return &Request{XMLName: agName, Type: "request"} }},
	{KindResult, 3, func() message { return &Result{XMLName: agName, Type: "result"} }},
	{KindQuery, 4, func() message { return &Query{XMLName: agName, Type: "query"} }},
	{KindDispatch, 5, func() message { return &DispatchAck{XMLName: agName, Type: "dispatch"} }},
	{KindError, 6, func() message { return &ErrorReply{XMLName: agName, Type: "error"} }},
	{KindResults, 7, func() message { return &ResultSet{XMLName: agName, Type: "results"} }},
	{KindHello, 8, func() message { return &Hello{XMLName: agName, Type: "hello"} }},
	{KindBusy, 9, func() message { return &Busy{XMLName: agName, Type: "busy"} }},
	{KindReserve, 10, func() message { return &Reserve{XMLName: agName, Type: "reserve"} }},
	{KindReserveAck, 11, func() message { return &ReserveAck{XMLName: agName, Type: "reserveack"} }},
	{KindMembership, 12, func() message { return &Membership{XMLName: agName, Type: "membership"} }},
	{KindMembershipAck, 13, func() message { return &MembershipAck{XMLName: agName, Type: "membershipack"} }},
}

// byType finds a kind's entry from the Go type of a message, in value or
// pointer form. It is filled once and only read.
var byType = func() map[reflect.Type]*entry {
	m := make(map[reflect.Type]*entry, 2*len(table))
	for i := range table {
		t := reflect.TypeOf(table[i].new())
		m[t], m[t.Elem()] = &table[i], &table[i]
	}
	return m
}()

// find returns the table entry match accepts, or nil.
func find(match func(*entry) bool) *entry {
	for i := range table {
		if match(&table[i]) {
			return &table[i]
		}
	}
	return nil
}

// agName is the XMLName value encoding/xml sets when decoding an
// agentgrid document; the binary decoder sets the same so a message is
// identical whichever codec carried it.
var agName = xml.Name{Local: "agentgrid"}

// Marshal renders a message as an indented agentgrid XML document.
func Marshal(v interface{}) ([]byte, error) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlmsg: marshal: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode parses an agentgrid document and returns the typed message, a
// pointer to the wire type its kind names (*ServiceInfo for "service",
// and so on through the table). The document is parsed once: the root's
// type attribute picks the entry, and the root decodes into the entry's
// constructor, whose XMLName rejects a root other than <agentgrid>.
func Decode(data []byte) (interface{}, Kind, error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	var root xml.StartElement
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode root: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			root = start
			break
		}
	}
	var typ string
	for _, a := range root.Attr { // the last type attribute wins, as in a decoded struct
		if a.Name.Local == "type" {
			typ = a.Value
		}
	}
	e := find(func(e *entry) bool { return e.kind == Kind(typ) })
	if e == nil {
		return nil, "", fmt.Errorf("xmlmsg: unknown agentgrid type %q", typ)
	}
	m := e.new()
	if err := d.DecodeElement(m, &root); err != nil {
		return nil, "", fmt.Errorf("xmlmsg: decode %s: %w", e.kind, err)
	}
	return m, e.kind, nil
}
