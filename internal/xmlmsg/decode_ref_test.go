package xmlmsg

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"testing"
)

// refDecode is the two-pass Decode that TestDecodeMatchesTwoPass holds
// the one-pass Decode to: an envelope unmarshal reads the root's type
// attribute, then a typed unmarshal parses the whole document again.
func refDecode(data []byte) (interface{}, Kind, error) {
	var env struct {
		XMLName xml.Name `xml:"agentgrid"`
		Type    string   `xml:"type,attr"`
	}
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, "", err
	}
	e := find(func(e *entry) bool { return e.kind == Kind(env.Type) })
	if e == nil {
		return nil, "", fmt.Errorf("unknown agentgrid type %q", env.Type)
	}
	m := e.new()
	if err := xml.Unmarshal(data, m); err != nil {
		return nil, "", err
	}
	return m, e.kind, nil
}

// TestDecodeMatchesTwoPass: Decode accepts exactly the documents the
// two-pass decoder accepts, and decodes each to the same kind and value.
// The documents are every fuzz seed, cut short every few bytes, and the
// edge forms of the root: a prolog, a namespace, two type attributes,
// another root name, an unknown or missing type, trailing bytes and
// malformed bodies.
func TestDecodeMatchesTwoPass(t *testing.T) {
	docs := []string{
		``,
		`</agentgrid>`,
		`<?xml version="1.0"?><!-- advert --><agentgrid type="hello"><name>S1</name></agentgrid>`,
		`<agentgrid xmlns="urn:grid" type="busy"><depth>3</depth></agentgrid>`,
		`<agentgrid xmlns:x="urn:x" type="request" x:type="busy"><depth>3</depth></agentgrid>`,
		`<agentgrid type="busy" type="hello"/>`,
		`<grid type="hello"/>`,
		`<agentgrid type="nope"/>`,
		`<agentgrid/>`,
		`<agentgrid><agentgrid type="busy"/></agentgrid>`,
		`<agentgrid type="hello"></agentgrid>trailing <junk`,
		`<agentgrid type="hello"><a></b></agentgrid>`,
		`<agentgrid type="nope"><a></b></agentgrid>`,
		`<agentgrid type="dispatch"><taskid>notanumber</taskid></agentgrid>`,
	}
	for _, m := range fuzzSeeds() {
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut += 7 {
			docs = append(docs, string(data[:cut]))
		}
		docs = append(docs, string(data))
	}
	for _, doc := range docs {
		got, gotKind, gotErr := Decode([]byte(doc))
		want, wantKind, wantErr := refDecode([]byte(doc))
		if (gotErr == nil) != (wantErr == nil) || gotKind != wantKind || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n one pass %s %#v (%v)\n two pass %s %#v (%v)", doc, gotKind, got, gotErr, wantKind, want, wantErr)
		}
	}
}
