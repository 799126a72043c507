package transport

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xmlmsg"
)

func startCaseStudyFarm(t *testing.T, policy string) *Farm {
	t.Helper()
	farm, err := StartFarm(FarmConfig{
		Specs:      scenario.Fig7Resources(),
		Policy:     policy,
		Seed:       7,
		PullPeriod: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = farm.Close() })
	return farm
}

// TestFarmFullCaseStudyGridOverTCP boots all twelve Fig. 7 agents as real
// TCP daemons, waits for advertisement pulls to propagate, and drives
// requests through the wire protocol end to end.
func TestFarmFullCaseStudyGridOverTCP(t *testing.T) {
	farm := startCaseStudyFarm(t, "fifo")
	if len(farm.Names()) != 12 {
		t.Fatalf("%d nodes", len(farm.Names()))
	}

	// Wait until every node has pulled at least twice.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, name := range farm.Names() {
			n, _ := farm.Node(name)
			if n.Stats().Pulls >= 2 {
				ready++
			}
		}
		if ready == 12 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A loose request submitted at the slowest leaf stays local.
	s12, _ := farm.Addr("S12")
	reply, _, err := Call(s12, xmlmsg.NewWireRequest(101, "sweep3d", "test", 1e6, "u@g", xmlmsg.ModeDiscover, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ack := reply.(*xmlmsg.DispatchAck); ack.Resource != "S12" {
		t.Fatalf("loose request landed on %s", ack.Resource)
	}

	// A tight request at the same leaf must migrate to a faster platform
	// through the hierarchy: sweep3d needs >= 24s on S12's SPARCstation2
	// (factor 6) and >= 5.6s even on an Ultra10, so a 5-second deadline
	// admits only the SGI platforms (minimum 4s).
	reply, _, err = Call(s12, xmlmsg.NewWireRequest(102, "sweep3d", "test", 5, "u@g", xmlmsg.ModeDiscover, nil))
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(*xmlmsg.DispatchAck)
	if ack.Resource != "S1" && ack.Resource != "S2" {
		t.Fatalf("tight request landed on %s, want an SGI platform", ack.Resource)
	}

	// Service queries work against every node.
	for _, name := range farm.Names() {
		addr, _ := farm.Addr(name)
		reply, kind, err := Call(addr, xmlmsg.NewServiceQuery())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if kind != xmlmsg.KindService {
			t.Fatalf("%s replied %v", name, kind)
		}
		if si := reply.(*xmlmsg.ServiceInfo); si.Local.NProc != 16 {
			t.Fatalf("%s advertises %d nodes", name, si.Local.NProc)
		}
	}
}

func TestFarmValidation(t *testing.T) {
	if _, err := StartFarm(FarmConfig{}); err == nil {
		t.Error("empty farm accepted")
	}
	if _, err := StartFarm(FarmConfig{
		Specs: []core.ResourceSpec{{Name: "a", Hardware: "VAX", Nodes: 4}},
	}); err == nil {
		t.Error("unknown hardware accepted")
	}
	if _, err := StartFarm(FarmConfig{
		Specs:  []core.ResourceSpec{{Name: "a", Hardware: "SGIOrigin2000", Nodes: 4}},
		Policy: "quantum",
	}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := StartFarm(FarmConfig{
		Specs: []core.ResourceSpec{
			{Name: "a", Hardware: "SGIOrigin2000", Nodes: 4},
			{Name: "b", Hardware: "SGIOrigin2000", Nodes: 4, Parent: "ghost"},
		},
	}); err == nil {
		t.Error("unknown parent accepted")
	}
}

func TestFarmAccessors(t *testing.T) {
	farm, err := StartFarm(FarmConfig{
		Specs: []core.ResourceSpec{
			{Name: "x", Hardware: "SGIOrigin2000", Nodes: 4},
			{Name: "y", Hardware: "SunUltra5", Nodes: 4, Parent: "x"},
		},
		PullPeriod: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	if _, ok := farm.Node("x"); !ok {
		t.Fatal("node lookup failed")
	}
	if _, ok := farm.Addr("ghost"); ok {
		t.Fatal("phantom addr")
	}
	desc := farm.Describe()
	if len(desc) == 0 {
		t.Fatal("empty description")
	}
}
