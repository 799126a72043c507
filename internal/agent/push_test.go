package agent

import (
	"testing"

	"repro/internal/pace"
)

func TestMaybePushDeliversToNeighbours(t *testing.T) {
	e := pace.NewEngine()
	head, child := pair(t, e)

	// First push always fires.
	if sent := child.MaybePush(0); sent != 1 {
		t.Fatalf("first push delivered to %d neighbours, want 1", sent)
	}
	if head.Stats().PushesReceived != 1 {
		t.Fatalf("head stats: %+v", head.Stats())
	}
	if child.Stats().PushesSent != 1 {
		t.Fatalf("child stats: %+v", child.Stats())
	}

	// No freetime drift: second push suppressed.
	if sent := child.MaybePush(1); sent != 0 {
		t.Fatalf("push without drift delivered %d", sent)
	}

	// Load the child beyond the threshold; the push fires again.
	for i := 0; i < 10; i++ {
		if _, err := child.Local().Submit(appOf(t, "sweep3d"), 1e9, 1); err != nil {
			t.Fatal(err)
		}
	}
	if sent := child.MaybePush(2); sent != 1 {
		t.Fatalf("push after drift delivered %d, want 1", sent)
	}
	if head.Stats().PushesReceived != 2 {
		t.Fatalf("head stats after drift: %+v", head.Stats())
	}
}

func TestPushedAdvertisementUpdatesDiscovery(t *testing.T) {
	e := pace.NewEngine()
	head, child := pair(t, e)

	// Load the fast head heavily; without any refresh the child's cache
	// still claims the head is idle.
	for i := 0; i < 60; i++ {
		if _, err := head.Local().Submit(appOf(t, "improc"), 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The head pushes its new state instead of waiting for the child's
	// next 10-second pull.
	if sent := head.MaybePush(1); sent != 1 {
		t.Fatalf("head push delivered %d", sent)
	}
	// A loose-deadline request at the child must now stay local: the
	// pushed advertisement reveals the head's backlog.
	d, err := child.HandleRequest(Request{App: appOf(t, "fft"), Env: "test", Deadline: 1e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Resource != "slow" {
		t.Fatalf("request chased the loaded head despite the pushed advertisement: %s", d.Resource)
	}
}

func TestShouldPushThreshold(t *testing.T) {
	e := pace.NewEngine()
	_, child := pair(t, e)
	child.PushThreshold = 100

	si, ok := child.shouldPush()
	if !ok {
		t.Fatal("first shouldPush suppressed")
	}
	child.markPushed(si, 1)
	// Drift below the threshold: suppressed.
	if _, err := child.Local().Submit(appOf(t, "closure"), 1e9, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := child.shouldPush(); ok {
		t.Fatal("sub-threshold drift triggered a push")
	}
}

func TestMarkPushedIgnoresZeroSent(t *testing.T) {
	e := pace.NewEngine()
	_, child := pair(t, e)
	si, _ := child.shouldPush()
	child.markPushed(si, 0)
	if child.Stats().PushesSent != 0 {
		t.Fatal("zero-delivery push counted")
	}
	if _, ok := child.shouldPush(); !ok {
		t.Fatal("failed push suppressed the retry")
	}
}

func TestPushAdvertisementStoresUnderSenderName(t *testing.T) {
	e := pace.NewEngine()
	head, _ := pair(t, e)
	info := newLocal(t, "phantom", pace.SunUltra1, 4, e).ServiceInfo()
	if err := head.PushAdvertisement("phantom", info, 5); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range head.CachedServiceNames() {
		if n == "phantom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pushed advertisement not cached: %v", head.CachedServiceNames())
	}
	if head.Stats().PushesReceived != 1 {
		t.Fatalf("stats: %+v", head.Stats())
	}
}
