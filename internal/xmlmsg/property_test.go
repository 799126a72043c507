package xmlmsg

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// sanitise keeps generated strings inside XML's character set so the
// property tests exercise the codec, not Go's XML charset validation.
func sanitise(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 0x20 && r != '<' && r != '>' && r != '&' && r <= 0xFFFD {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Property: any request built from generated fields survives a marshal/
// decode round trip with its semantic content — including the grid-wide
// request ID — intact.
func TestRequestRoundTripProperty(t *testing.T) {
	prop := func(appRaw, envRaw, emailRaw string, reqID uint64, deadlineRaw uint32, visitedRaw []string) bool {
		app := sanitise(appRaw)
		env := sanitise(envRaw)
		if app == "" {
			app = "fft"
		}
		if env == "" {
			env = "test"
		}
		deadline := float64(deadlineRaw % 1000000)
		visited := make([]string, 0, len(visitedRaw))
		for _, v := range visitedRaw {
			if s := sanitise(v); s != "" {
				visited = append(visited, s)
			}
		}
		req := NewWireRequest(reqID, app, env, deadline, sanitise(emailRaw), ModeDiscover, visited)
		data, err := Marshal(req)
		if err != nil {
			return false
		}
		back, kind, err := Decode(data)
		if err != nil || kind != KindRequest {
			return false
		}
		got := back.(*Request)
		if got.ReqID != reqID {
			return false
		}
		if got.Application.Name != app || got.Requirement.Environment != env {
			return false
		}
		dl, err := got.DeadlineSeconds()
		if err != nil || math.Abs(dl-deadline) > 0.5 { // 1-second timestamp resolution
			return false
		}
		if len(got.Visited) != len(visited) {
			return false
		}
		for i := range visited {
			if got.Visited[i] != visited[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: service advertisements round-trip through marshal/decode and
// framing together.
func TestServiceRoundTripProperty(t *testing.T) {
	prop := func(hwRaw string, nproc uint8, freetimeRaw uint32, envsRaw []string) bool {
		hw := sanitise(hwRaw)
		if hw == "" {
			hw = "SunUltra5"
		}
		envs := make([]string, 0, len(envsRaw))
		for _, e := range envsRaw {
			if s := sanitise(e); s != "" {
				envs = append(envs, s)
			}
		}
		ft := float64(freetimeRaw % 10000000)
		si := NewServiceInfo(Endpoint{"a", 1}, Endpoint{"b", 2}, hw, int(nproc)+1, envs, ft)

		data, err := Marshal(si)
		if err != nil {
			return false
		}
		back, kind, err := Decode(data)
		if err != nil || kind != KindService {
			return false
		}
		got := back.(*ServiceInfo)
		if got.Local.HWType != hw || got.Local.NProc != int(nproc)+1 {
			return false
		}
		gotFt, err := got.FreetimeSeconds()
		if err != nil || math.Abs(gotFt-ft) > 0.5 {
			return false
		}
		return len(got.Local.Environments) == len(envs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: framing survives arbitrary binary payloads back to back.
func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		for _, p := range payloads {
			if len(p) > MaxFrame {
				p = p[:MaxFrame]
			}
			if err := WriteMuxFrame(&buf, MuxFrame{Codec: CodecBinary, Payload: p}); err != nil {
				return false
			}
		}
		r := bufio.NewReader(&buf)
		for _, p := range payloads {
			if len(p) > MaxFrame {
				p = p[:MaxFrame]
			}
			got, err := ReadMuxFrame(r)
			if err != nil {
				return false
			}
			if !bytes.Equal(got.Payload, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
