package xmlmsg

import (
	"encoding/xml"
	"fmt"
	"strconv"
)

// FormatSeconds renders a virtual time or duration as a decimal-seconds
// string that round-trips the float64 exactly. Reservation windows are
// contractual — a booking confirmed over the wire must match the held
// window bit for bit — so they cannot ride the one-second-resolution
// ANSIC timestamps the Fig. 5/6 fields use.
func FormatSeconds(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseSeconds inverts FormatSeconds.
func ParseSeconds(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("xmlmsg: bad seconds %q: %w", s, err)
	}
	return v, nil
}

// FormatMask renders a node mask in hex.
func FormatMask(m uint64) string { return strconv.FormatUint(m, 16) }

// ParseMask inverts FormatMask; the empty string is the zero mask.
func ParseMask(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	m, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("xmlmsg: bad node mask %q: %w", s, err)
	}
	return m, nil
}

// Reserve is one phase of the advance-reservation protocol on the wire.
// Which fields are meaningful depends on Action: quote uses Nodes,
// Earliest and Duration (and Resource for a targeted re-quote — empty
// floods the hierarchy); hold uses Resource, Mask, Start, End and TTL;
// confirm uses Resource, ReqID and Model; release uses Resource. ResvID
// names the reservation in every phase after quote, and Visited carries
// the same loop protection as a Fig. 6 request.
type Reserve struct {
	XMLName  xml.Name `xml:"agentgrid"`
	Type     string   `xml:"type,attr"`   // always "reserve"
	Action   string   `xml:"action,attr"` // quote | hold | confirm | release
	ResvID   uint64   `xml:"resvid,attr,omitempty"`
	ReqID    uint64   `xml:"reqid,attr,omitempty"`
	Resource string   `xml:"resource,omitempty"`
	Holder   string   `xml:"holder,omitempty"`
	Nodes    int      `xml:"nodes,omitempty"`
	Earliest string   `xml:"earliest,omitempty"` // decimal virtual seconds
	Duration string   `xml:"duration,omitempty"` // decimal seconds
	Mask     string   `xml:"mask,omitempty"`     // hex node mask
	Start    string   `xml:"start,omitempty"`    // decimal virtual seconds
	End      string   `xml:"end,omitempty"`      // decimal virtual seconds
	TTL      string   `xml:"ttl,omitempty"`      // decimal seconds
	Model    string   `xml:"model,omitempty"`    // PACE model name (confirm)
	Visited  []string `xml:"visited>agent,omitempty"`
}

// QuoteEntry is one resource's offer inside a ReserveAck.
type QuoteEntry struct {
	Resource string `xml:"resource"`
	Mask     string `xml:"mask"`  // hex node mask
	Start    string `xml:"start"` // decimal virtual seconds
	End      string `xml:"end"`   // decimal virtual seconds
}

// ReserveAck answers a Reserve: the aggregated quotes for a quote
// action, the scheduler-local task ID for a confirm, nothing beyond
// success for hold and release (failures travel as ErrorReply).
type ReserveAck struct {
	XMLName xml.Name     `xml:"agentgrid"`
	Type    string       `xml:"type,attr"` // always "reserveack"
	TaskID  int          `xml:"taskid,omitempty"`
	Quotes  []QuoteEntry `xml:"quote,omitempty"`
}

// NewReserveAck builds an acknowledgement.
func NewReserveAck(taskID int, quotes []QuoteEntry) ReserveAck {
	return ReserveAck{Type: "reserveack", TaskID: taskID, Quotes: quotes}
}
