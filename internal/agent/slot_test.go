package agent

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/pace"
	"repro/internal/scheduler"
)

// advertPeer is a neighbour that answers every pull with its current
// advertisement and accepts nothing else.
type advertPeer struct {
	name string
	info scheduler.ServiceInfo
}

func (p *advertPeer) PeerName() string                            { return p.name }
func (p *advertPeer) PullService() (scheduler.ServiceInfo, error) { return p.info, nil }
func (p *advertPeer) Handle(Request, float64) (Dispatch, error) {
	return Dispatch{}, errors.New("advertPeer: no discovery")
}
func (p *advertPeer) SubmitDirect(Request, float64) (Dispatch, error) {
	return Dispatch{}, errors.New("advertPeer: no scheduler")
}

func advertOn(name, hw string) *advertPeer {
	return &advertPeer{name: name, info: scheduler.ServiceInfo{
		Name: name, HWType: hw, NProc: 16, Environments: []string{"test"},
	}}
}

func breakersOpen(a *Agent) float64 { return a.stats.breakersOpen.Value() }

// TestSlotRelinkStartsEmpty: a neighbour unlinked and linked again gets
// a fresh slot on both sides — no advertisement to route on and a closed
// breaker — whether it goes by Unlink/Link or RemoveLower/AddLower.
func TestSlotRelinkStartsEmpty(t *testing.T) {
	gate := &testGate{down: map[string]bool{}}
	head, fast, _ := trio(t, gate)
	for i := 0; i < DefaultFailureThreshold; i++ {
		head.RecordPeerFailure("fast")
		fast.RecordPeerFailure("head")
	}
	if !head.PeerTripped("fast") || !fast.PeerTripped("head") {
		t.Fatal("breakers did not trip")
	}
	if err := Unlink(head, fast); err != nil {
		t.Fatal(err)
	}
	if head.slotOf("fast") != nil || fast.upperSlot() != nil {
		t.Fatal("unlinked peers kept their slots")
	}
	if breakersOpen(head) != 0 || breakersOpen(fast) != 0 {
		t.Fatalf("open breakers after Unlink: head %v, fast %v", breakersOpen(head), breakersOpen(fast))
	}
	if err := Link(head, fast); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*peerSlot{head.slotOf("fast"), fast.upperSlot()} {
		if s.cached || s.tripped || s.consecFails != 0 || s.col != nil {
			t.Fatalf("re-linked slot of %s is not empty: %+v", s.name, s)
		}
	}
	// sweep3d takes 4 s on fast, 5.6 s on alt: with fast's advert gone
	// the head cannot forward there until it pulls again.
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}
	if d := head.Decide(req, 0); d.Kind == DecideForward && d.Peer.PeerName() == "fast" {
		t.Fatalf("re-linked peer routed on a stale advert: %+v", d)
	}
	head.Pull(0)
	if d := head.Decide(req, 0); d.Kind != DecideForward || d.Peer.PeerName() != "fast" {
		t.Fatalf("after a pull: %+v, want forward to fast", d)
	}

	// The remote form of the same edge.
	remote := advertOn("far", pace.SGIOrigin2000.Name)
	if err := head.AddLower(remote); err != nil {
		t.Fatal(err)
	}
	head.Pull(1)
	for i := 0; i < DefaultFailureThreshold; i++ {
		head.RecordPeerFailure("far")
	}
	if !head.RemoveLower("far") || head.slotOf("far") != nil || breakersOpen(head) != 0 {
		t.Fatalf("RemoveLower left slot %v, %v breakers open", head.slotOf("far"), breakersOpen(head))
	}
	if err := head.AddLower(remote); err != nil {
		t.Fatal(err)
	}
	if s := head.slotOf("far"); s.cached || s.tripped || s.consecFails != 0 {
		t.Fatalf("re-added remote slot is not empty: %+v", s)
	}
}

// TestSlotFollowsAdvertisedHardware: an advertisement whose hardware
// changes between pulls is estimated on the new hardware, and its column
// is resolved again only on that change.
func TestSlotFollowsAdvertisedHardware(t *testing.T) {
	e := pace.NewEngine()
	a := newAgent(t, "a", pace.SunUltra1, 16, e)
	p := advertOn("p", pace.SunSPARCstation2.Name)
	if err := a.AddLower(p); err != nil {
		t.Fatal(err)
	}
	app := appOf(t, "improc")
	want := func(hw pace.Hardware) float64 {
		best := math.Inf(1)
		for k := 1; k <= 16; k++ {
			best = math.Min(best, e.MustPredict(app, hw, k))
		}
		return 100 + best
	}
	a.Pull(0)
	s := a.slotOf("p")
	col := s.col
	a.Pull(1)
	if s.col != col {
		t.Fatal("column resolved again for unchanged hardware")
	}
	if eta, ok := a.estimateRemote(s, app, 100); !ok || eta != want(pace.SunSPARCstation2) {
		t.Fatalf("η on SPARCstation2 = %v, %v; want %v", eta, ok, want(pace.SunSPARCstation2))
	}
	p.info.HWType = pace.SGIOrigin2000.Name
	a.Pull(2)
	if eta, ok := a.estimateRemote(s, app, 100); !ok || eta != want(pace.SGIOrigin2000) {
		t.Fatalf("η after the hardware change = %v, %v; want %v (Origin2000)", eta, ok, want(pace.SGIOrigin2000))
	}
}

// TestSlotUnknownHardwareSkipped: an advertisement of hardware the PACE
// registry does not know is no candidate for discovery or the fallback.
func TestSlotUnknownHardwareSkipped(t *testing.T) {
	e := pace.NewEngine()
	a := newAgent(t, "a", pace.SunSPARCstation2, 16, e)
	p := advertOn("cray", "CrayT3E")
	p.info.Environments = []string{"test", "quantum"}
	if err := a.AddLower(p); err != nil {
		t.Fatal(err)
	}
	a.Pull(0)
	if s := a.slotOf("cray"); !s.cached || s.col != nil {
		t.Fatalf("slot %+v: want a cached advert without a column", s)
	}
	req := Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 1e9}
	if s, _ := a.bestNeighbour(req, 0); s != nil {
		t.Fatalf("bestNeighbour chose %s", s.name)
	}
	if s, _, local, err := a.fallbackTarget(req, 0, nil); err != nil || !local || s != nil {
		t.Fatalf("fallback = %v, local %v, %v; want the local resource", s, local, err)
	}
	// Only the unknown hardware supports quantum: nothing is left.
	req.Env = "quantum"
	if _, _, _, err := a.fallbackTarget(req, 0, nil); err == nil {
		t.Fatal("fallback found a target for quantum")
	}
}

// TestSlotBreakerGaugeBalancedAcrossForget: the open-breaker gauge counts
// each open circuit once, whatever mix of Forget, unlink and late
// exchange outcomes closes or drops it.
func TestSlotBreakerGaugeBalancedAcrossForget(t *testing.T) {
	gate := &testGate{down: map[string]bool{}}
	head, fast, _ := trio(t, gate)
	for i := 0; i < DefaultFailureThreshold; i++ {
		head.RecordPeerFailure("fast")
		head.RecordPeerFailure("alt")
	}
	if got := breakersOpen(head); got != 2 {
		t.Fatalf("open breakers = %v, want 2", got)
	}
	head.Forget("alt")
	head.Forget("alt")
	if got := breakersOpen(head); got != 1 || head.PeerTripped("alt") {
		t.Fatalf("after Forget(alt): %v open, alt tripped %v; want 1, false", got, head.PeerTripped("alt"))
	}
	s := head.slotOf("fast")
	if err := Unlink(head, fast); err != nil {
		t.Fatal(err)
	}
	if got := breakersOpen(head); got != 0 {
		t.Fatalf("after Unlink(fast): %v open, want 0", got)
	}
	// An exchange that returns after its peer was unlinked, and a
	// failure reported against a name that is not linked, record nothing.
	for i := 0; i < DefaultFailureThreshold; i++ {
		head.recordExchange(s, errors.New("late"))
		if head.RecordPeerFailure("fast") {
			t.Fatal("an unlinked name tripped a breaker")
		}
	}
	if got := breakersOpen(head); got != 0 {
		t.Fatalf("late failures opened %v breakers", got)
	}
	head.Forget("fast")
	if got := breakersOpen(head); got != 0 {
		t.Fatalf("Forget of an unlinked peer moved the gauge to %v", got)
	}
}

// TestCachedServiceNamesSlotOrder: the service set lists linked peers in
// discovery order — upper, then lowers in link order — then unlinked
// pushers in arrival order; a pusher linked later adopts its advert.
func TestCachedServiceNamesSlotOrder(t *testing.T) {
	e := pace.NewEngine()
	a := newAgent(t, "a", pace.SunUltra5, 16, e)
	for _, n := range []string{"z", "m", "b"} {
		if err := a.AddLower(advertOn(n, pace.SunUltra1.Name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetUpper(advertOn("up", pace.SGIOrigin2000.Name)); err != nil {
		t.Fatal(err)
	}
	pushed := newLocal(t, "late", pace.SGIOrigin2000, 16, e).ServiceInfo()
	for _, n := range []string{"q", "late", "c"} {
		if err := a.PushAdvertisement(n, pushed, 0); err != nil {
			t.Fatal(err)
		}
	}
	a.Pull(0)
	want := []string{"up", "z", "m", "b", "q", "late", "c"}
	for i := 0; i < 5; i++ {
		if got := a.CachedServiceNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("CachedServiceNames = %v, want %v", got, want)
		}
	}
	late := &advertPeer{name: "late"}
	if err := a.AddLower(late); err != nil {
		t.Fatal(err)
	}
	want = []string{"up", "z", "m", "b", "late", "q", "c"}
	if got := a.CachedServiceNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after linking late: %v, want %v", got, want)
	}
	if s := a.slotOf("late"); !reflect.DeepEqual(s.info, pushed) || s.col == nil {
		t.Fatalf("linked pusher did not adopt its advert: %+v", s)
	}
}
