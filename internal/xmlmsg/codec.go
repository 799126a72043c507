package xmlmsg

import (
	"encoding/xml"
	"fmt"
)

// Kind discriminates the agentgrid message types on the wire.
type Kind string

// Message kinds.
const (
	KindService Kind = "service"
	KindRequest Kind = "request"
	KindResult  Kind = "result"
)

// Marshal renders a message as an indented agentgrid XML document.
func Marshal(v interface{}) ([]byte, error) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlmsg: marshal: %w", err)
	}
	return append(out, '\n'), nil
}

// envelope peeks at the agentgrid type attribute.
type envelope struct {
	XMLName xml.Name `xml:"agentgrid"`
	Type    string   `xml:"type,attr"`
}

// Decode parses an agentgrid document and returns the typed message:
// *ServiceInfo, *Request or *Result.
func Decode(data []byte) (interface{}, Kind, error) {
	var env envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, "", fmt.Errorf("xmlmsg: decode envelope: %w", err)
	}
	switch Kind(env.Type) {
	case KindService:
		var m ServiceInfo
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode service: %w", err)
		}
		return &m, KindService, nil
	case KindRequest:
		var m Request
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode request: %w", err)
		}
		return &m, KindRequest, nil
	case KindResult:
		var m Result
		if err := xml.Unmarshal(data, &m); err != nil {
			return nil, "", fmt.Errorf("xmlmsg: decode result: %w", err)
		}
		return &m, KindResult, nil
	}
	return decodeExtended(env, data)
}
