package agent

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/pace"
)

// tree builds the five-agent fixture used across the dynamic-hierarchy
// tests: head -> {a, b}, a -> {a1, a2}.
func tree(t *testing.T) (h *Hierarchy, head, a, b, a1, a2 *Agent) {
	t.Helper()
	e := pace.NewEngine()
	head = newAgent(t, "head", pace.SGIOrigin2000, 16, e)
	a = newAgent(t, "a", pace.SunUltra10, 16, e)
	b = newAgent(t, "b", pace.SunUltra10, 16, e)
	a1 = newAgent(t, "a1", pace.SunUltra5, 16, e)
	a2 = newAgent(t, "a2", pace.SunUltra5, 16, e)
	for _, l := range []struct{ p, c *Agent }{{head, a}, {head, b}, {a, a1}, {a, a2}} {
		if err := Link(l.p, l.c); err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewHierarchy([]*Agent{head, a, b, a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	return h, head, a, b, a1, a2
}

func TestLinkRejectsSecondParent(t *testing.T) {
	_, _, _, b, a1, _ := tree(t)
	err := Link(b, a1)
	var al *AlreadyLinkedError
	if !errors.As(err, &al) {
		t.Fatalf("re-linking a parented child: got %v, want AlreadyLinkedError", err)
	}
	if al.Child != "a1" || al.Upper != "a" {
		t.Fatalf("error names wrong pair: %+v", al)
	}
}

func TestLinkRejectsSelfLink(t *testing.T) {
	e := pace.NewEngine()
	solo := newAgent(t, "solo", pace.SGIOrigin2000, 16, e)
	err := Link(solo, solo)
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("self-link: got %v, want CycleError", err)
	}
	if ce.Child != ce.Parent {
		t.Fatalf("self-link error should name the agent twice: %+v", ce)
	}
}

func TestLinkRejectsCycle(t *testing.T) {
	_, head, _, _, a1, _ := tree(t)
	// head under its own grandchild would make head its own ancestor: the
	// walk up from a1 (a1 -> a -> head) reaches the would-be child.
	err := Link(a1, head)
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CycleError, got %v", err)
	}
	if ce.Child != "head" || ce.Parent != "a1" {
		t.Fatalf("error names wrong pair: %+v", ce)
	}
}

func TestUnlinkRequiresCurrentEdge(t *testing.T) {
	_, head, _, b, a1, _ := tree(t)
	// b is not a1's parent.
	err := Unlink(b, a1)
	var nl *NotLinkedError
	if !errors.As(err, &nl) {
		t.Fatalf("unlinking a non-edge: got %v, want NotLinkedError", err)
	}
	// The head has no parent at all.
	if err := Unlink(head, head); !errors.As(err, &nl) {
		t.Fatalf("unlinking the head from itself: got %v, want NotLinkedError", err)
	}
}

func TestUnlinkForgetsBothSides(t *testing.T) {
	_, _, a, _, a1, _ := tree(t)
	a.Pull(0)
	a1.Pull(0)
	cached := func(of *Agent, name string) bool {
		for _, n := range of.CachedServiceNames() {
			if n == name {
				return true
			}
		}
		return false
	}
	if !cached(a, "a1") {
		t.Fatal("pull did not cache the child advert")
	}
	if err := Unlink(a, a1); err != nil {
		t.Fatal(err)
	}
	if cached(a, "a1") {
		t.Fatal("parent still caches the unlinked child's advert")
	}
	if cached(a1, "a") {
		t.Fatal("child still caches the unlinked parent's advert")
	}
}

func TestAttachDetachRuntime(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	e := pace.NewEngine()
	n := newAgent(t, "n", pace.SGIOrigin2000, 16, e)
	if err := h.Attach("a", n); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Lookup("n"); !ok || got != n {
		t.Fatal("attached agent not in the tree")
	}
	// Attaching a duplicate name or under an unknown parent fails.
	if err := h.Attach("a", n); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
	if err := h.Attach("ghost", newAgent(t, "m", pace.SGIOrigin2000, 4, e)); err == nil {
		t.Fatal("attach under unknown parent succeeded")
	}

	// Detaching a re-homes its children (a1, a2, n) under head.
	parent, err := h.Detach("a")
	if err != nil {
		t.Fatal(err)
	}
	if parent.Name() != "head" {
		t.Fatalf("detach returned parent %s, want head", parent.Name())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("tree broken after detach: %v", err)
	}
	if _, ok := h.Lookup("a"); ok {
		t.Fatal("detached agent still registered")
	}
	up, _ := h.Lookup("a1")
	if up.Upper() == nil || up.Upper().PeerName() != "head" {
		t.Fatal("orphaned child not re-homed under the former grandparent")
	}
}

// TestInOrderSharedUntilMembershipChanges: per-tick walks read one
// shared name-ordered slice, which a membership change replaces without
// touching the one a walk may still hold.
func TestInOrderSharedUntilMembershipChanges(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	first := h.InOrder()
	if again := h.InOrder(); &again[0] != &first[0] {
		t.Fatal("InOrder rebuilt its slice on a static tree")
	}
	names := func(agents []*Agent) []string {
		var out []string
		for _, a := range agents {
			out = append(out, a.Name())
		}
		return out
	}
	before := names(first)
	if got := h.Names(); !slices.Equal(got, before) {
		t.Fatalf("Names %v, InOrder %v", got, before)
	}
	if err := h.Attach("a", newAgent(t, "n", pace.SGIOrigin2000, 4, pace.NewEngine())); err != nil {
		t.Fatal(err)
	}
	if got := names(first); !slices.Equal(got, before) {
		t.Fatalf("an Attach rewrote a held walk: %v, was %v", got, before)
	}
	if got, want := names(h.InOrder()), h.Names(); !slices.Equal(got, want) || len(got) != len(before)+1 {
		t.Fatalf("InOrder after Attach %v, want %v", got, want)
	}
}

func TestDetachHeadRejected(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	if _, err := h.Detach("head"); err == nil {
		t.Fatal("detaching the head succeeded")
	}
	if _, err := h.Detach("ghost"); err == nil {
		t.Fatal("detaching an unknown agent succeeded")
	}
}

func TestRehomeMovesSubtree(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	if _, err := h.Rehome("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("tree broken after rehome: %v", err)
	}
	a, _ := h.Lookup("a")
	if a.Upper().PeerName() != "b" {
		t.Fatalf("a's upper is %s, want b", a.Upper().PeerName())
	}
	// The subtree moved with it.
	a1, _ := h.Lookup("a1")
	if a1.Upper().PeerName() != "a" {
		t.Fatal("a1 lost its parent during the move")
	}
}

func TestRehomeRejectsBreakingMoves(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	if _, err := h.Rehome("head", "b"); err == nil {
		t.Fatal("re-homing the head succeeded")
	}
	if _, err := h.Rehome("a", "head"); err == nil {
		t.Fatal("re-homing under the current parent succeeded")
	}
	// Under its own descendant: the cycle walk must reject it and leave
	// the original edge intact.
	if _, err := h.Rehome("a", "a1"); err == nil {
		t.Fatal("re-homing under a descendant succeeded")
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("rejected rehome left the tree broken: %v", err)
	}
	a, _ := h.Lookup("a")
	if a.Upper().PeerName() != "head" {
		t.Fatal("rejected rehome did not restore the old edge")
	}
}

// TestHierarchyConcurrentReaders hammers the read API while the tree
// mutates — run under -race this proves the lock discipline.
func TestHierarchyConcurrentReaders(t *testing.T) {
	h, _, _, _, _, _ := tree(t)
	e := pace.NewEngine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.Names()
				_ = h.Describe()
				_, _ = h.Lookup("a1")
				_ = h.Head()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		n := newAgent(t, fmt.Sprintf("x%d", i), pace.SunUltra1, 4, e)
		if err := h.Attach("b", n); err != nil {
			t.Error(err)
			break
		}
		if _, err := h.Detach(n.Name()); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}
