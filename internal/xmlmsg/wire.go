package xmlmsg

import (
	"encoding/xml"
	"fmt"
)

// Additional agentgrid message kinds used by the networked deployment
// (cmd/gridagent). The Fig. 5/6 formats cover
// advertisement and submission; these cover the query/ack plumbing around
// them.
const (
	KindQuery    Kind = "query"
	KindDispatch Kind = "dispatch"
	KindError    Kind = "error"
)

// Query asks a peer for information: "service" pulls the peer's Fig. 5
// advertisement; "results" fetches task execution results (the
// communication module's first output, §2.2), optionally filtered by the
// submitting email.
type Query struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"` // always "query"
	What    string   `xml:"what"`
	Email   string   `xml:"email,omitempty"`
}

// NewServiceQuery builds the advertisement pull message.
func NewServiceQuery() Query {
	return Query{Type: "query", What: "service"}
}

// NewResultsQuery builds a results poll; email "" returns everything.
func NewResultsQuery(email string) Query {
	return Query{Type: "query", What: "results", Email: email}
}

// TaskResult is one entry of a ResultSet: a task's outcome on the
// resource that executed it.
type TaskResult struct {
	App      string `xml:"app"`
	TaskID   int    `xml:"id"`
	Resource string `xml:"resource"`
	NProc    int    `xml:"nproc"`
	Start    string `xml:"start"`
	End      string `xml:"end"`
	Deadline string `xml:"deadline"`
	Met      bool   `xml:"met"`
	Done     bool   `xml:"done"` // false while still executing at query time
	Email    string `xml:"email,omitempty"`
}

// EndSeconds decodes the completion timestamp.
func (r TaskResult) EndSeconds() (float64, error) { return ParseVirtual(r.End) }

// ResultSet answers a results query.
type ResultSet struct {
	XMLName xml.Name     `xml:"agentgrid"`
	Type    string       `xml:"type,attr"` // always "results"
	Tasks   []TaskResult `xml:"task"`
}

// NewResultSet wraps task results for the wire.
func NewResultSet(tasks []TaskResult) ResultSet {
	return ResultSet{Type: "results", Tasks: tasks}
}

// KindResults identifies a ResultSet on the wire.
const KindResults Kind = "results"

// DispatchAck acknowledges a request, reporting where the task landed.
// ReqID echoes the grid-wide request identity of the request being
// acknowledged, so the submitter can join the ack (and later results)
// back to its request without relying on the scheduler-local task ID.
type DispatchAck struct {
	XMLName  xml.Name `xml:"agentgrid"`
	Type     string   `xml:"type,attr"` // always "dispatch"
	Resource string   `xml:"resource"`
	TaskID   int      `xml:"taskid"`
	ReqID    uint64   `xml:"reqid,omitempty"`
	Eta      string   `xml:"eta,omitempty"` // expected completion, virtual timestamp
	Hops     int      `xml:"hops"`
	Fallback bool     `xml:"fallback"`
}

// NewDispatchAck builds an acknowledgement.
func NewDispatchAck(resource string, taskID int, reqID uint64, etaSec float64, hops int, fallback bool) DispatchAck {
	return DispatchAck{
		Type:     "dispatch",
		Resource: resource,
		TaskID:   taskID,
		ReqID:    reqID,
		Eta:      FormatVirtual(etaSec),
		Hops:     hops,
		Fallback: fallback,
	}
}

// EtaSeconds decodes the expected completion timestamp.
func (d DispatchAck) EtaSeconds() (float64, error) { return ParseVirtual(d.Eta) }

// ErrorReply reports a failed exchange.
type ErrorReply struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"` // always "error"
	Message string   `xml:"message"`
}

// NewErrorReply wraps an error for the wire.
func NewErrorReply(err error) ErrorReply {
	return ErrorReply{Type: "error", Message: err.Error()}
}

// Err converts the reply back to an error.
func (e ErrorReply) Err() error { return fmt.Errorf("xmlmsg: remote error: %s", e.Message) }

// Dispatch modes carried in a request's mode attribute: "discover" (or
// empty) runs service discovery at the receiver, "direct" queues on the
// receiver's local scheduler unconditionally — used by the head's
// fallback.
const (
	ModeDiscover = "discover"
	ModeDirect   = "direct"
)

// NewWireRequest builds a networked request: a Fig. 6 request carrying
// the discovery bookkeeping (grid-wide request ID, dispatch mode and
// visited-agent list) the hierarchy needs on the wire.
func NewWireRequest(reqID uint64, appName, env string, deadlineSec float64, email, mode string, visited []string) Request {
	r := NewRequest(appName, "", appName, env, deadlineSec, email)
	r.ReqID = reqID
	r.Mode = mode
	r.Visited = visited
	return r
}

// decodeExtended handles the wire-plumbing kinds; the switch in codec.go
// handles the Fig. 5/6 kinds.
func decodeExtended(env envelope, data []byte) (interface{}, Kind, error) {
	if m, kind, ok, err := decodeFrameKinds(env, data); ok || err != nil {
		return m, kind, err
	}
	if m, kind, ok, err := decodeReserveKinds(env, data); ok || err != nil {
		return m, kind, err
	}
	if m, kind, ok, err := decodeMembershipKinds(env, data); ok || err != nil {
		return m, kind, err
	}
	switch Kind(env.Type) {
	case KindQuery:
		var m Query
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode query: %w", err)
		}
		return &m, KindQuery, nil
	case KindDispatch:
		var m DispatchAck
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode dispatch: %w", err)
		}
		return &m, KindDispatch, nil
	case KindError:
		var m ErrorReply
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode error reply: %w", err)
		}
		return &m, KindError, nil
	case KindResults:
		var m ResultSet
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode result set: %w", err)
		}
		return &m, KindResults, nil
	}
	return nil, "", fmt.Errorf("xmlmsg: unknown agentgrid type %q", env.Type)
}
