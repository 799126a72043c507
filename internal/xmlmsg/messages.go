// Package xmlmsg defines the XML message formats the agents exchange:
// service information (Fig. 5), task requests (Fig. 6) and task execution
// results. Agents "are implemented using Java and data are represented in
// an XML format" (§3.2); here encoding/xml provides the same wire format
// for the Go daemons in cmd/gridagent and cmd/gridfarm and the portal in
// cmd/gridsubmit, beside an opt-in compact binary codec.
//
// Both codecs read one message table (codec.go). A new kind is one Kind
// constant, one table row with a new binary tag, and one fields method
// listing its binary fields in wire order (binary.go); the tests then
// ask for a case of it in binaryCases and its bytes in the wire golden.
package xmlmsg

import (
	"encoding/xml"
	"fmt"
	"time"
)

// Epoch anchors virtual time: virtual second 0 corresponds to this wall
// instant. The paper's messages carry asctime-style timestamps (Fig. 5
// shows "Sun Nov 15 04:43:10 2001"); virtual seconds are converted through
// this epoch when marshalled.
var Epoch = time.Date(2001, time.November, 15, 4, 43, 10, 0, time.UTC)

// FormatVirtual renders a virtual time (seconds since Epoch) in the ANSIC
// format used by the paper's messages.
func FormatVirtual(sec float64) string {
	return Epoch.Add(time.Duration(sec * float64(time.Second))).UTC().Format(time.ANSIC)
}

// ParseVirtual inverts FormatVirtual with one-second resolution.
func ParseVirtual(s string) (float64, error) {
	t, err := time.ParseInLocation(time.ANSIC, s, time.UTC)
	if err != nil {
		return 0, fmt.Errorf("xmlmsg: bad timestamp %q: %w", s, err)
	}
	return t.Sub(Epoch).Seconds(), nil
}

// Endpoint identifies an agent or local scheduler by the address and port
// used to initiate communication (§3.2).
type Endpoint struct {
	Address string `xml:"address"`
	Port    int    `xml:"port"`
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Address, e.Port) }

// ServiceInfo is the Fig. 5 message: the advertisement describing one grid
// resource, submitted by a local scheduler to its agent and propagated
// through the hierarchy.
type ServiceInfo struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"` // always "service"
	Agent   Endpoint `xml:"agent"`
	Local   Local    `xml:"local"`
}

// Local is the resource block of a service advertisement. Name is an
// additive extension used by pushed advertisements so the receiver can
// key its service set (the paper identifies peers by address/port).
type Local struct {
	Name         string   `xml:"name,omitempty"`
	Address      string   `xml:"address"`
	Port         int      `xml:"port"`
	HWType       string   `xml:"type"`
	NProc        int      `xml:"nproc"`
	Environments []string `xml:"environment"`
	Freetime     string   `xml:"freetime"`
}

// NewServiceInfo builds a Fig. 5 message.
func NewServiceInfo(agent, local Endpoint, hwType string, nproc int, envs []string, freetimeSec float64) ServiceInfo {
	return ServiceInfo{
		Type:  "service",
		Agent: agent,
		Local: Local{
			Address:      local.Address,
			Port:         local.Port,
			HWType:       hwType,
			NProc:        nproc,
			Environments: envs,
			Freetime:     FormatVirtual(freetimeSec),
		},
	}
}

// FreetimeSeconds decodes the freetime timestamp to virtual seconds.
func (s ServiceInfo) FreetimeSeconds() (float64, error) {
	return ParseVirtual(s.Local.Freetime)
}

// Request is the Fig. 6 message: a task execution request from a user
// portal, carrying the application (binary plus PACE performance model),
// the requirements (environment and deadline) and contact information.
// Mode, ReqID and Visited are wire-protocol extensions used between
// networked agents (see ModeDiscover/ModeDirect); all are empty on plain
// portal submissions, keeping those byte-compatible with the figure.
// ReqID is the grid-wide request identity minted where the request enters
// the grid; it survives every forward hop so lifecycle events on
// different resources can be joined (scheduler-local task IDs cannot —
// they restart at 1 on every resource).
type Request struct {
	XMLName     xml.Name    `xml:"agentgrid"`
	Type        string      `xml:"type,attr"` // always "request"
	Mode        string      `xml:"mode,attr,omitempty"`
	ReqID       uint64      `xml:"reqid,attr,omitempty"`
	Application Application `xml:"application"`
	Requirement Requirement `xml:"requirement"`
	Email       string      `xml:"email"`
	Visited     []string    `xml:"visited>agent,omitempty"`
}

// Application identifies the program and its performance model.
type Application struct {
	Name        string      `xml:"name"`
	Binary      Binary      `xml:"binary"`
	Performance Performance `xml:"performance"`
}

// Binary locates the pre-compiled executable and its input, assumed
// available in all local file systems (§3.2).
type Binary struct {
	File      string `xml:"file"`
	InputFile string `xml:"inputfile,omitempty"`
}

// Performance locates the PACE application model.
type Performance struct {
	DataType  string `xml:"datatype"` // "pacemodel"
	ModelName string `xml:"modelname"`
}

// Requirement carries the execution environment and required deadline.
type Requirement struct {
	Environment string `xml:"environment"`
	Deadline    string `xml:"deadline"`
}

// NewRequest builds a Fig. 6 message with a virtual-time deadline.
func NewRequest(appName, binaryFile, modelName, env string, deadlineSec float64, email string) Request {
	return Request{
		Type: "request",
		Application: Application{
			Name:        appName,
			Binary:      Binary{File: binaryFile},
			Performance: Performance{DataType: "pacemodel", ModelName: modelName},
		},
		Requirement: Requirement{Environment: env, Deadline: FormatVirtual(deadlineSec)},
		Email:       email,
	}
}

// Validate checks the fields every consumer relies on and returns the
// deadline in virtual seconds, so a consumer parses it only here.
func (r Request) Validate() (float64, error) {
	if r.Type != "request" {
		return 0, fmt.Errorf("xmlmsg: request has type %q", r.Type)
	}
	if r.Application.Name == "" {
		return 0, fmt.Errorf("xmlmsg: request has no application name")
	}
	if r.Requirement.Environment == "" {
		return 0, fmt.Errorf("xmlmsg: request has no execution environment")
	}
	return ParseVirtual(r.Requirement.Deadline)
}

// Result reports a task's execution outcome back to the user from the
// resource that ran it (the communication module's first output, §2.2).
type Result struct {
	XMLName     xml.Name `xml:"agentgrid"`
	Type        string   `xml:"type,attr"` // always "result"
	AppName     string   `xml:"application>name"`
	TaskID      int      `xml:"task>id"`
	Resource    string   `xml:"task>resource"`
	NProc       int      `xml:"task>nproc"`
	Start       string   `xml:"task>start"`
	End         string   `xml:"task>end"`
	Deadline    string   `xml:"task>deadline"`
	MetDeadline bool     `xml:"task>met"`
	Email       string   `xml:"email"`
}

// NewResult builds a result message from virtual times.
func NewResult(appName string, taskID int, resource string, nproc int, start, end, deadline float64, email string) Result {
	return Result{
		Type:        "result",
		AppName:     appName,
		TaskID:      taskID,
		Resource:    resource,
		NProc:       nproc,
		Start:       FormatVirtual(start),
		End:         FormatVirtual(end),
		Deadline:    FormatVirtual(deadline),
		MetDeadline: end <= deadline,
		Email:       email,
	}
}
