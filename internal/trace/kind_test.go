package trace

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestKindNames: every kind prints the name it had when Kind was a
// string, and encodes as that name.
func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		0:                     "",
		KindArrive:            "arrive",
		KindDispatch:          "dispatch",
		KindStart:             "start",
		KindComplete:          "complete",
		KindFail:              "fail",
		KindPeerDown:          "peerdown",
		KindPeerUp:            "peerup",
		KindRedispatch:        "redispatch",
		KindDegrade:           "degrade",
		KindRestore:           "restore",
		KindMigrateOffer:      "migrate-offer",
		KindMigrateWithdraw:   "migrate-withdraw",
		KindMigrateRedispatch: "migrate-redispatch",
		KindReserveHold:       "reserve-hold",
		KindReserveConfirm:    "reserve-confirm",
		KindReserveRelease:    "reserve-release",
		KindReserveExpire:     "reserve-expire",
		KindJoin:              "join",
		KindLeave:             "leave",
		KindRehomePropose:     "rehome-propose",
		KindRehomeDetach:      "rehome-detach",
		KindRehomeAttach:      "rehome-attach",
	}
	if len(want) != int(kindCount) {
		t.Fatalf("%d kinds named here, %d defined", len(want), kindCount)
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind %d prints %q, want %q", uint8(k), k.String(), name)
		}
		b, err := json.Marshal(k)
		if err != nil || string(b) != `"`+name+`"` {
			t.Errorf("Kind %d encodes as %s (%v), want %q", uint8(k), b, err, name)
		}
	}
	if s := kindCount.String(); s != "Kind(23)" {
		t.Errorf("an undefined kind prints %q", s)
	}
	taskBearing := []Kind{KindArrive, KindDispatch, KindStart, KindComplete, KindFail, KindRedispatch,
		KindMigrateOffer, KindMigrateWithdraw, KindMigrateRedispatch}
	for k := Kind(0); k < 255; k++ {
		if got, want := k.TaskBearing(), slices.Contains(taskBearing, k); got != want {
			t.Errorf("%s: TaskBearing = %v, want %v", k, got, want)
		}
	}
}

// kindStream is one event of every kind, as a grid would stamp them.
func kindStream() []Event {
	return []Event{
		{Time: 0, Kind: KindArrive, ReqID: 1, Agent: "S1", App: "fft", Detail: "rerouted to S2 (agent down)"},
		{Time: 0, Kind: KindDispatch, ReqID: 1, Agent: "S1", Resource: "S3", TaskID: 1, App: "fft", Detail: "hops=2 fallback"},
		{Time: 0.5, Kind: KindReserveHold, ReqID: 2, Resource: "S4", App: "cpi", Detail: "resv=7 mask=3 win=[100,160) exp=130"},
		{Time: 0.5, Kind: KindReserveConfirm, ReqID: 2, Resource: "S4", TaskID: 3, App: "cpi", Detail: "resv=7 win=[100,160)"},
		{Time: 1, Kind: KindStart, ReqID: 1, Resource: "S3", TaskID: 1, App: "fft"},
		{Time: 1.25, Kind: KindPeerDown, Agent: "S5"},
		{Time: 1.25, Kind: KindRedispatch, ReqID: 3, Agent: "S2", Resource: "S6", TaskID: 4, App: "memsort", Detail: "from=S5"},
		{Time: 2, Kind: KindDegrade, Agent: "S2", Detail: "factor=3"},
		{Time: 2.5, Kind: KindMigrateOffer, ReqID: 4, Agent: "S2", Resource: "S2", TaskID: 5, App: "improc", Detail: "drift=1.50"},
		{Time: 2.5, Kind: KindMigrateWithdraw, ReqID: 4, Resource: "S2", TaskID: 5, App: "improc", Detail: "target=S1"},
		{Time: 2.5, Kind: KindMigrateRedispatch, ReqID: 4, Agent: "S1", Resource: "S1", TaskID: 2, App: "improc", Detail: "from=S2 oldtask=5"},
		{Time: 3, Kind: KindReserveRelease, Resource: "S4", Detail: "resv=8"},
		{Time: 3.5, Kind: KindReserveExpire, Resource: "S4", Detail: "resv=9"},
		{Time: 4, Kind: KindJoin, Agent: "S13", Detail: "parent=S11"},
		{Time: 4.5, Kind: KindRehomePropose, Agent: "S7", Detail: "from=S3 to=S4 load=9/2"},
		{Time: 4.5, Kind: KindRehomeDetach, Agent: "S7", Detail: "from=S3"},
		{Time: 4.5, Kind: KindRehomeAttach, Agent: "S7", Detail: "to=S4"},
		{Time: 5, Kind: KindLeave, Agent: "S9"},
		{Time: 5.5, Kind: KindRestore, Agent: "S2"},
		{Time: 6, Kind: KindPeerUp, Agent: "S5"},
		{Time: 7, Kind: KindComplete, ReqID: 1, Resource: "S3", TaskID: 1, App: "fft", Detail: "deadline_met=true"},
		{Time: 7.5, Kind: KindFail, ReqID: 5, Agent: "S1", App: "doom", Detail: "no model"},
	}
}

// TestKindGoldenStream: Event.String, Recorder.Summary and the CSV sink
// print a stream holding every kind exactly as they did when Kind was a
// string (testdata/kinds.{txt,csv} were written by that version).
func TestKindGoldenStream(t *testing.T) {
	r := NewRecorder(0)
	var csvOut bytes.Buffer
	sink := NewCSVSink(&csvOut)
	r.AddSink(sink)
	for _, ev := range kindStream() {
		r.Record(ev)
	}
	var text bytes.Buffer
	for _, ev := range r.Events() {
		text.WriteString(ev.String() + "\n")
	}
	text.WriteString(r.Summary() + "\n")
	if err := sink.Close(0); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{{"kinds.txt", text.Bytes()}, {"kinds.csv", csvOut.Bytes()}} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

// TestNoStringConversionOfKind: string(k) on a Kind compiles, since its
// underlying type is byte, and yields a one-character string rather than
// the kind's name — and go vet's stringintconv does not flag conversions
// from byte types. So the sources that use this package are searched for
// it instead: no string() of a .Kind field, of a Kind constant, or of a
// variable declared as a Kind.
func TestNoStringConversionOfKind(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name != "trace" && !importsTrace(f) {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "string" {
				return true
			}
			if kindTyped(call.Args[0]) {
				t.Errorf("%s: string() of a trace kind; use its String method", fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func importsTrace(f *ast.File) bool {
	for _, im := range f.Imports {
		if im.Path.Value == `"repro/internal/trace"` {
			return true
		}
	}
	return false
}

// kindTyped reports whether e is visibly a trace kind: a .Kind field, a
// Kind constant (trace.KindArrive, KindArrive), or a variable declared
// with type Kind or trace.Kind.
func kindTyped(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "trace" && strings.HasPrefix(x.Sel.Name, "Kind") {
			return true
		}
		return x.Sel.Name == "Kind"
	case *ast.Ident:
		if strings.HasPrefix(x.Name, "Kind") && len(x.Name) > len("Kind") {
			return true
		}
		if x.Obj == nil {
			return false
		}
		var typ ast.Expr
		switch d := x.Obj.Decl.(type) {
		case *ast.Field:
			typ = d.Type
		case *ast.ValueSpec:
			typ = d.Type
		}
		switch tt := typ.(type) {
		case *ast.Ident:
			return tt.Name == "Kind"
		case *ast.SelectorExpr:
			return tt.Sel.Name == "Kind"
		}
	}
	return false
}
