package agent

import (
	"errors"
	"fmt"
	"math/rand"
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

// lossyGate fails every exchange with a down agent and, from its own
// seeded stream, a share loss of the rest. Twins built from one seed draw
// in step as long as they exchange in the same order.
type lossyGate struct {
	rng  *rand.Rand
	loss float64
	down map[string]bool
}

func (g *lossyGate) ExchangeErr(from, to string, now float64) error {
	if g.down[from] || g.down[to] {
		return errors.New("gate: agent down")
	}
	if g.rng.Float64() < g.loss {
		return errors.New("gate: exchange lost")
	}
	return nil
}

func (g *lossyGate) AgentDown(name string) bool { return g.down[name] }

// pullTwin is one of two hierarchies the differential pull test drives in
// step, built from one seed over one PACE engine.
type pullTwin struct {
	h    *Hierarchy
	gate *lossyGate
}

func newPullTwin(t *testing.T, seed int64, e *pace.Engine) pullTwin {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hws := []pace.Hardware{pace.SGIOrigin2000, pace.SunUltra10, pace.SunUltra5, pace.SunSPARCstation2}
	gate := &lossyGate{rng: rand.New(rand.NewSource(seed + 1)), loss: 0.15, down: map[string]bool{}}
	agents := make([]*Agent, 30)
	for i := range agents {
		agents[i] = newAgent(t, fmt.Sprintf("A%d", i), hws[rng.Intn(len(hws))], []int{2, 4, 8, 16}[rng.Intn(4)], e)
		agents[i].SetGate(gate)
		if i > 0 {
			if err := Link(agents[rng.Intn(i)], agents[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	h, err := NewHierarchy(agents)
	if err != nil {
		t.Fatal(err)
	}
	return pullTwin{h: h, gate: gate}
}

// agent returns the twin's agent of the given name.
func (w pullTwin) agent(t *testing.T, name string) *Agent {
	t.Helper()
	a, ok := w.h.Lookup(name)
	if !ok {
		t.Fatalf("no agent %s", name)
	}
	return a
}

// diffTwins reports the first difference between the twins' pull state:
// membership, every slot's advertisement and breaker, every agent's
// counters.
func diffTwins(batched, each pullTwin) string {
	as, bs := batched.h.InOrder(), each.h.InOrder()
	if len(as) != len(bs) {
		return fmt.Sprintf("%d agents against %d", len(as), len(bs))
	}
	for i, a := range as {
		b := bs[i]
		if a.name != b.name || len(a.slots) != len(b.slots) {
			return fmt.Sprintf("agent %s with %d slots against %s with %d", a.name, len(a.slots), b.name, len(b.slots))
		}
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			return fmt.Sprintf("%s stats %+v against %+v", a.name, sa, sb)
		}
		for j, s := range a.slots {
			r := b.slots[j]
			if s.name != r.name || s.cached != r.cached || !reflect.DeepEqual(s.info, r.info) || s.pulledAt != r.pulledAt ||
				!sameColumn(s.col, r.col) || s.consecFails != r.consecFails || s.tripped != r.tripped {
				return fmt.Sprintf("%s slot %d: %s cached=%t info=%+v at %v col=%p fails=%d tripped=%t against "+
					"%s cached=%t info=%+v at %v col=%p fails=%d tripped=%t", a.name, j,
					s.name, s.cached, s.info, s.pulledAt, s.col, s.consecFails, s.tripped,
					r.name, r.cached, r.info, r.pulledAt, r.col, r.consecFails, r.tripped)
			}
		}
	}
	return ""
}

// sameColumn reports whether two resolved PACE columns read the same
// hardware of the same engine (Column hands out a new handle per call).
func sameColumn(a, b *pace.Column) bool {
	return a == nil && b == nil || a != nil && b != nil && *a == *b
}

// TestPullAllMatchesPerExchangePull holds the batched tick — a freetime
// snapshot per publisher, slots refreshed in place — to the plain
// per-exchange Pull it stands for. Twin grids are driven in step through
// 24 ticks of a lossy gate, a crash window, work landing between ticks,
// pushes, a joiner adopting a pushed advert and a leaver;
// one twin ticks with PullAll, the other with every live agent's Pull in
// name order, and after every tick the twins must agree slot by slot.
func TestPullAllMatchesPerExchangePull(t *testing.T) {
	apps := []string{"fft", "sweep3d", "memsort", "jacobi"}
	for seed := int64(1); seed <= 4; seed++ {
		e := pace.NewEngine()
		twins := []pullTwin{newPullTwin(t, seed, e), newPullTwin(t, seed, e)}
		drive := rand.New(rand.NewSource(-seed))
		var joined []string
		for tick := 0; tick < 24; tick++ {
			now := 10 * float64(tick)
			// Between ticks: work lands and a few agents push — the same
			// on both twins.
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("A%d", drive.Intn(30))
				app := appOf(t, apps[drive.Intn(len(apps))])
				for _, w := range twins {
					if _, err := w.agent(t, name).Local().Submit(app, now+1e6, now); err != nil {
						t.Fatal(err)
					}
				}
			}
			pusher := fmt.Sprintf("A%d", drive.Intn(30))
			crashed := fmt.Sprintf("A%d", 1+drive.Intn(29))
			for _, w := range twins {
				if tick >= 2 {
					w.agent(t, pusher).MaybePush(now)
				}
				switch tick {
				case 5:
					w.gate.down[crashed] = true
				case 10:
					clear(w.gate.down)
				}
			}
			if tick == 7 || tick == 12 {
				// A joiner whose advert reached its parent by push before
				// the link: the parent adopts it at Attach.
				parent := fmt.Sprintf("A%d", drive.Intn(30))
				name := fmt.Sprintf("J%d", tick)
				for _, w := range twins {
					c := newAgent(t, name, pace.SunUltra10, 8, e)
					c.SetGate(w.gate)
					info, _ := c.PullService()
					if err := w.agent(t, parent).PushAdvertisement(name, info, now-5); err != nil {
						t.Fatal(err)
					}
					if err := w.h.Attach(parent, c); err != nil {
						t.Fatal(err)
					}
				}
				joined = append(joined, name)
			}
			if tick == 16 {
				for _, w := range twins {
					if _, err := w.h.Detach(joined[0]); err != nil {
						t.Fatal(err)
					}
				}
			}

			twins[0].h.PullAll(now)
			for _, a := range twins[1].h.InOrder() {
				if !a.down() {
					a.Pull(now)
				}
			}
			if d := diffTwins(twins[0], twins[1]); d != "" {
				t.Fatalf("seed %d, tick %d: PullAll and per-exchange Pull differ: %s", seed, tick, d)
			}
		}
	}
}
