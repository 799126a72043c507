package xmlmsg

import (
	"strings"
	"testing"
)

func TestFormatParseVirtualRoundTrip(t *testing.T) {
	for _, sec := range []float64{0, 1, 59, 600, 86400, 123456} {
		s := FormatVirtual(sec)
		got, err := ParseVirtual(s)
		if err != nil {
			t.Fatalf("ParseVirtual(%q): %v", s, err)
		}
		if got != sec {
			t.Fatalf("round trip %v -> %q -> %v", sec, s, got)
		}
	}
}

func TestFormatVirtualMatchesFig5Style(t *testing.T) {
	// Fig. 5 shows "Sun Nov 15 04:43:10 2001" — ANSIC layout. Virtual 0
	// is the epoch itself.
	s := FormatVirtual(0)
	if !strings.Contains(s, "Nov 15 04:43:10 2001") {
		t.Fatalf("epoch formats as %q", s)
	}
}

func TestParseVirtualRejectsGarbage(t *testing.T) {
	if _, err := ParseVirtual("not a time"); err == nil {
		t.Fatal("garbage timestamp accepted")
	}
}

func TestServiceInfoRoundTrip(t *testing.T) {
	si := NewServiceInfo(
		Endpoint{Address: "gem.dcs.warwick.ac.uk", Port: 1000},
		Endpoint{Address: "gem.dcs.warwick.ac.uk", Port: 10000},
		"SunUltra10", 16, []string{"mpi", "pvm", "test"}, 600,
	)
	data, err := Marshal(si)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`type="service"`, "<agent>", "<local>", "<nproc>16</nproc>",
		"<type>SunUltra10</type>", "<environment>mpi</environment>",
		"<environment>pvm</environment>", "<environment>test</environment>",
		"<freetime>",
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshalled service info missing %q:\n%s", want, data)
		}
	}
	back, kind, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindService {
		t.Fatalf("kind = %v", kind)
	}
	got := back.(*ServiceInfo)
	if got.Local.HWType != "SunUltra10" || got.Local.NProc != 16 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	ft, err := got.FreetimeSeconds()
	if err != nil {
		t.Fatal(err)
	}
	if ft != 600 {
		t.Fatalf("freetime = %v, want 600", ft)
	}
	if len(got.Local.Environments) != 3 {
		t.Fatalf("environments = %v", got.Local.Environments)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := NewRequest("sweep3d", "/bin/sweep3d", "/models/sweep3d", "test", 127, "junwei@dcs.warwick.ac.uk")
	if _, err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`type="request"`, "<name>sweep3d</name>",
		"<datatype>pacemodel</datatype>", "<deadline>",
		"<email>junwei@dcs.warwick.ac.uk</email>",
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshalled request missing %q:\n%s", want, data)
		}
	}
	back, kind, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindRequest {
		t.Fatalf("kind = %v", kind)
	}
	got := back.(*Request)
	dl, err := got.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if dl != 127 {
		t.Fatalf("deadline = %v, want 127", dl)
	}
}

func TestRequestValidate(t *testing.T) {
	good := NewRequest("fft", "/bin/fft", "/m/fft", "test", 10, "a@b")
	cases := []func(Request) Request{
		func(r Request) Request { r.Type = "service"; return r },
		func(r Request) Request { r.Application.Name = ""; return r },
		func(r Request) Request { r.Requirement.Environment = ""; return r },
		func(r Request) Request { r.Requirement.Deadline = "junk"; return r },
	}
	for i, mut := range cases {
		if _, err := mut(good).Validate(); err == nil {
			t.Errorf("bad request %d validated", i)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := NewResult("jacobi", 42, "S3", 8, 100, 140, 150, "user@grid")
	if !res.MetDeadline {
		t.Fatal("deadline met flag wrong")
	}
	data, err := Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back, kind, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindResult {
		t.Fatalf("kind = %v", kind)
	}
	got := back.(*Result)
	if got.TaskID != 42 || got.Resource != "S3" || got.NProc != 8 || !got.MetDeadline {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	late := NewResult("jacobi", 1, "S3", 8, 100, 160, 150, "u@g")
	if late.MetDeadline {
		t.Fatal("late task marked as meeting its deadline")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte("<notxml")); err == nil {
		t.Error("malformed XML decoded")
	}
	if _, _, err := Decode([]byte(`<agentgrid type="bogus"></agentgrid>`)); err == nil {
		t.Error("unknown type decoded")
	}
	if _, _, err := Decode([]byte(`<other/>`)); err == nil {
		t.Error("non-agentgrid document decoded")
	}
}
