package agent

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/pace"
)

func cachedNames(a *Agent) []string {
	names := a.CachedServiceNames()
	sort.Strings(names)
	return names
}

// TestPullAllSkipsDownAgents checks both sides of a crash: an agent its
// gate reports down runs no pull of its own (so it racks up no failures
// against live peers), and its neighbours cannot pull it. Live
// publishers' batched adverts equal what PullService returns.
func TestPullAllSkipsDownAgents(t *testing.T) {
	h, head, a, b, a1, a2 := tree(t)
	gate := &testGate{down: map[string]bool{"a": true}}
	for _, ag := range []*Agent{head, a, b, a1, a2} {
		ag.SetGate(gate)
	}
	h.PullAll(0)
	if st := a.Stats(); st.Pulls != 0 || st.FailedPulls != 0 || len(a.CachedServiceNames()) != 0 {
		t.Fatalf("down agent pulled: %+v, cache %v", st, cachedNames(a))
	}
	for _, ag := range []*Agent{head, a1, a2} {
		if ag.slotOf("a").cached || ag.Stats().FailedPulls != 1 {
			t.Fatalf("%s pulled down a: cache %v, %d failed pulls", ag.name, cachedNames(ag), ag.Stats().FailedPulls)
		}
	}
	want, _ := b.PullService()
	if got := head.slotOf("b").info; !reflect.DeepEqual(got, want) {
		t.Fatalf("batched advert of b = %+v, PullService = %+v", got, want)
	}

	delete(gate.down, "a")
	h.PullAll(10)
	if got := cachedNames(a); a.Stats().Pulls != 1 || !reflect.DeepEqual(got, []string{"a1", "a2", "head"}) {
		t.Fatalf("recovered a: %d pulls, cache %v", a.Stats().Pulls, got)
	}
	if !head.slotOf("a").cached {
		t.Fatal("head did not pull recovered a")
	}
}

// TestPullAllFollowsAttachAndDetach checks that the cached publisher set
// is rebuilt after a membership change: a joiner pulls and is pulled from
// the next tick on, and a leaver does neither.
func TestPullAllFollowsAttachAndDetach(t *testing.T) {
	h, _, _, b, _, _ := tree(t)
	h.PullAll(0)
	c := newAgent(t, "c", pace.SunUltra5, 16, pace.NewEngine())
	if err := h.Attach("b", c); err != nil {
		t.Fatal(err)
	}
	h.PullAll(10)
	if s := b.slotOf("c"); s == nil || !s.cached || c.Stats().Pulls != 1 {
		t.Fatalf("after attach: b caches %v, c pulled %d times", cachedNames(b), c.Stats().Pulls)
	}
	if _, err := h.Detach("c"); err != nil {
		t.Fatal(err)
	}
	h.PullAll(20)
	if b.slotOf("c") != nil || c.Stats().Pulls != 1 {
		t.Fatalf("after detach: b caches %v, c pulled %d times", cachedNames(b), c.Stats().Pulls)
	}
}
