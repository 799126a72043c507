package agent

import (
	"fmt"
	"sort"
	"strings"
)

// Hierarchy is a tree of agents rooted at the head (the only agent with no
// upper neighbour, like S1 in Fig. 7). The tree is mutable at runtime —
// Attach, Detach and Rehome change membership on the virtual clock. A
// Hierarchy belongs to the goroutine that runs its grid: it takes no lock,
// and nothing may read it while that goroutine mutates it.
type Hierarchy struct {
	head   *Agent
	byName map[string]*Agent
	sorted []*Agent // byName in name order; nil until built or after Attach/Detach
}

// AlreadyLinkedError rejects wiring an upper neighbour onto a child that
// already has one: the tree allows exactly one parent per agent, so the
// existing edge must be unlinked first.
type AlreadyLinkedError struct {
	Child string // agent that was to be linked
	Upper string // its current upper neighbour
}

func (e *AlreadyLinkedError) Error() string {
	return fmt.Sprintf("agent: %s already has upper agent %s", e.Child, e.Upper)
}

// CycleError rejects a Link that would make an agent its own ancestor
// (including the degenerate self-link, where Child == Parent).
type CycleError struct {
	Child  string
	Parent string
}

func (e *CycleError) Error() string {
	if e.Child == e.Parent {
		return fmt.Sprintf("agent: %s cannot be its own parent", e.Child)
	}
	return fmt.Sprintf("agent: linking %s under %s would create a cycle", e.Child, e.Parent)
}

// NotLinkedError rejects an Unlink of two agents that are not currently a
// parent/child pair — including unlinking the head, which has no parent.
type NotLinkedError struct {
	Child  string
	Parent string
}

func (e *NotLinkedError) Error() string {
	return fmt.Sprintf("agent: %s is not a lower agent of %s", e.Child, e.Parent)
}

// Link makes parent the upper agent of child. Both directions are wired:
// advertisement and discovery flow to upper and lower neighbours alike.
func Link(parent, child *Agent) error {
	if parent == nil || child == nil {
		return fmt.Errorf("agent: cannot link nil agents")
	}
	if parent == child {
		return &CycleError{Child: child.name, Parent: parent.name}
	}
	if child.upper != nil {
		return &AlreadyLinkedError{Child: child.name, Upper: child.upper.PeerName()}
	}
	// Reject cycles: walking up from parent must not reach child. Only
	// in-process ancestors can be walked; a remote upper ends the chain.
	for p := parent; p != nil; {
		if p == child {
			return &CycleError{Child: child.name, Parent: parent.name}
		}
		next, ok := p.upper.(*Agent)
		if !ok {
			break
		}
		p = next
	}
	child.link(parent, true)
	parent.link(child, false)
	return nil
}

// Unlink severs the parent/child edge wired by Link: child loses its
// upper neighbour and parent drops child from its lowers, and both sides
// forget the other's cached advertisement and breaker history. The pair
// must currently be linked; unlinking a head (no upper) or any other
// non-edge returns a NotLinkedError.
func Unlink(parent, child *Agent) error {
	if parent == nil || child == nil {
		return fmt.Errorf("agent: cannot unlink nil agents")
	}
	if up, ok := child.upper.(*Agent); !ok || up != parent {
		return &NotLinkedError{Child: child.name, Parent: parent.name}
	}
	off := len(parent.slots) - len(parent.lowerSlots())
	for i, s := range parent.lowerSlots() {
		if s.peer == Peer(child) {
			parent.unlink(off + i)
			child.unlink(0)
			return nil
		}
	}
	return &NotLinkedError{Child: child.name, Parent: parent.name}
}

// NewHierarchy validates that the given agents form a single tree and
// returns it. Every agent must be reachable from exactly one head.
func NewHierarchy(agents []*Agent) (*Hierarchy, error) {
	if len(agents) == 0 {
		return nil, fmt.Errorf("agent: empty hierarchy")
	}
	byName := make(map[string]*Agent, len(agents))
	var heads []*Agent
	for _, a := range agents {
		if a == nil {
			return nil, fmt.Errorf("agent: nil agent in hierarchy")
		}
		if _, dup := byName[a.name]; dup {
			return nil, fmt.Errorf("agent: duplicate agent name %q", a.name)
		}
		byName[a.name] = a
		if a.upper == nil {
			heads = append(heads, a)
		}
	}
	if len(heads) != 1 {
		names := make([]string, len(heads))
		for i, h := range heads {
			names[i] = h.name
		}
		return nil, fmt.Errorf("agent: hierarchy needs exactly one head, found %d (%s)", len(heads), strings.Join(names, ", "))
	}
	h := &Hierarchy{head: heads[0], byName: byName}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// Attach links child under the named parent at runtime and registers it
// in the tree. The child must carry a name not already present.
func (h *Hierarchy) Attach(parent string, child *Agent) error {
	if child == nil {
		return fmt.Errorf("agent: attach: nil agent")
	}
	p, ok := h.byName[parent]
	if !ok {
		return fmt.Errorf("agent: attach: unknown parent %q", parent)
	}
	if _, dup := h.byName[child.name]; dup {
		return fmt.Errorf("agent: attach: duplicate agent name %q", child.name)
	}
	if err := Link(p, child); err != nil {
		return err
	}
	h.byName[child.name] = child
	h.sorted = nil
	return nil
}

// Detach removes the named agent from the tree at runtime, returning its
// former parent. The departing agent's in-process lower neighbours are
// re-homed under that parent — in their existing order, so the mutation
// is deterministic — which keeps the tree connected; detaching the head
// is an error because it would orphan everything below it.
func (h *Hierarchy) Detach(name string) (*Agent, error) {
	a, ok := h.byName[name]
	if !ok {
		return nil, fmt.Errorf("agent: detach: unknown agent %q", name)
	}
	if a == h.head {
		return nil, fmt.Errorf("agent: detach: %s is the head of the hierarchy", name)
	}
	parent, ok := a.upper.(*Agent)
	if !ok {
		return nil, fmt.Errorf("agent: detach: %s has a remote upper agent", name)
	}
	if err := Unlink(parent, a); err != nil {
		return nil, err
	}
	for _, l := range a.Lowers() {
		la, ok := l.(*Agent)
		if !ok {
			continue
		}
		if err := Unlink(a, la); err != nil {
			return nil, err
		}
		if err := Link(parent, la); err != nil {
			return nil, err
		}
	}
	delete(h.byName, name)
	h.sorted = nil
	return parent, nil
}

// Rehome moves the named agent — and with it its whole subtree — under a
// new parent in one mutation, returning the former parent. The move is
// rejected when it would break the tree: moving the head, moving an
// agent under its own descendant (Link's cycle walk catches it), or
// re-homing under the current parent.
func (h *Hierarchy) Rehome(name, newParent string) (*Agent, error) {
	a, ok := h.byName[name]
	if !ok {
		return nil, fmt.Errorf("agent: rehome: unknown agent %q", name)
	}
	np, ok := h.byName[newParent]
	if !ok {
		return nil, fmt.Errorf("agent: rehome: unknown parent %q", newParent)
	}
	if a == h.head {
		return nil, fmt.Errorf("agent: rehome: %s is the head of the hierarchy", name)
	}
	old, ok := a.upper.(*Agent)
	if !ok {
		return nil, fmt.Errorf("agent: rehome: %s has a remote upper agent", name)
	}
	if old == np {
		return nil, fmt.Errorf("agent: rehome: %s is already under %s", name, newParent)
	}
	if err := Unlink(old, a); err != nil {
		return nil, err
	}
	if err := Link(np, a); err != nil {
		// Restore the original edge so a rejected move leaves the tree
		// exactly as it found it.
		if rerr := Link(old, a); rerr != nil {
			return nil, fmt.Errorf("agent: rehome: %v (and restoring the old edge failed: %v)", err, rerr)
		}
		return nil, err
	}
	return old, nil
}

// Validate re-checks the tree invariant at runtime: a single head, every
// registered agent reachable from it over consistent in-process edges,
// no cycles. The membership registry calls this after every mutation so
// the audited guarantee — tree acyclic and connected at every virtual
// instant — rests on an actual walk, not on construction-time checks.
func (h *Hierarchy) Validate() error {
	if h.head == nil {
		return fmt.Errorf("agent: hierarchy has no head")
	}
	if h.head.upper != nil {
		return fmt.Errorf("agent: head %s has an upper agent", h.head.name)
	}
	seen := make(map[string]bool, len(h.byName))
	var walk func(a *Agent) error
	walk = func(a *Agent) error {
		if seen[a.name] {
			return fmt.Errorf("agent: %s reachable twice from head %s — the tree has a cycle or a shared child", a.name, h.head.name)
		}
		seen[a.name] = true
		if h.byName[a.name] != a {
			return fmt.Errorf("agent: %s reachable from head %s but not registered in the hierarchy", a.name, h.head.name)
		}
		for _, l := range a.lowerSlots() {
			la, ok := l.peer.(*Agent)
			if !ok {
				continue
			}
			if la.upper != Peer(a) {
				return fmt.Errorf("agent: %s lists %s as a lower neighbour but %s's upper is not %s", a.name, la.name, la.name, a.name)
			}
			if err := walk(la); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.head); err != nil {
		return err
	}
	for name := range h.byName {
		if !seen[name] {
			return fmt.Errorf("agent: %s unreachable from head %s", name, h.head.name)
		}
	}
	return nil
}

// Head returns the hierarchy's root agent.
func (h *Hierarchy) Head() *Agent {
	return h.head
}

// Lookup returns the named agent.
func (h *Hierarchy) Lookup(name string) (*Agent, bool) {
	a, ok := h.byName[name]
	return a, ok
}

// Agents returns every agent sorted by name.
func (h *Hierarchy) Agents() []*Agent {
	return append([]*Agent(nil), h.InOrder()...)
}

// InOrder returns every agent sorted by name in the hierarchy's shared
// slice, sorted only after a membership change, so a static tree sorts
// its names once and a walk over it allocates nothing. The caller must
// not modify it; an Attach or Detach during the walk leaves it intact
// and makes the next call build a new one.
func (h *Hierarchy) InOrder() []*Agent {
	if h.sorted == nil {
		for _, a := range h.byName {
			h.sorted = append(h.sorted, a)
		}
		sort.Slice(h.sorted, func(i, j int) bool { return lessAgentName(h.sorted[i].name, h.sorted[j].name) })
	}
	return h.sorted
}

// Names returns the agent names sorted naturally (S2 before S10).
func (h *Hierarchy) Names() []string {
	agents := h.InOrder()
	out := make([]string, len(agents))
	for i, a := range agents {
		out[i] = a.name
	}
	return out
}

// PullAll runs one advertisement pull tick across the whole tree: every
// live agent refreshes its service-information set, in name order. An
// agent its gate reports down neither pulls nor is pulled.
func (h *Hierarchy) PullAll(now float64) {
	agents := h.InOrder()
	// Phase 1: every live publisher computes its freetime once — the only
	// part of its scheduler's advertisement that can move between ticks.
	// Scheduler state does not change within a pull tick, so each puller
	// of the same publisher would read an identical freetime; the batch
	// coalesces those O(degree) computations into one per publisher.
	for _, a := range agents {
		if a.advertLive = !a.down(); a.advertLive {
			a.advert = a.local.Freetime()
		}
	}
	// Phase 2: the exchanges themselves, strictly sequential in name
	// order, because lossy-gate draws are order-sensitive. A cached slot
	// is refreshed in place (see refresh). The gate fails a crashed
	// agent's exchanges with its peers, but skipping its own loop keeps
	// it from racking up failures against live peers.
	for _, a := range agents {
		if a.advertLive {
			a.pullBatched(now, true)
		}
	}
}

// Describe renders the tree as indented text (the Fig. 7 topology).
func (h *Hierarchy) Describe() string {
	var b strings.Builder
	var walk func(a *Agent, depth int)
	walk = func(a *Agent, depth int) {
		fmt.Fprintf(&b, "%s%s (%s, %d)\n", strings.Repeat("  ", depth), a.name, a.local.Hardware().Name, a.local.NumNodes())
		lowers := a.Lowers()
		sort.Slice(lowers, func(i, j int) bool { return lessAgentName(lowers[i].PeerName(), lowers[j].PeerName()) })
		for _, l := range lowers {
			if la, ok := l.(*Agent); ok {
				walk(la, depth+1)
			} else {
				fmt.Fprintf(&b, "%s%s (remote)\n", strings.Repeat("  ", depth+1), l.PeerName())
			}
		}
	}
	walk(h.head, 0)
	return b.String()
}

// LessAgentName reports the natural name order used across the grid (S2
// before S10) — exported so other layers can keep deterministic agent
// orderings consistent with Names.
func LessAgentName(a, b string) bool { return lessAgentName(a, b) }

// lessAgentName orders names naturally: a common prefix followed by a
// number sorts numerically (S2 < S10), anything else lexically.
func lessAgentName(a, b string) bool {
	pa, na, aok := splitTrailingNumber(a)
	pb, nb, bok := splitTrailingNumber(b)
	if aok && bok && pa == pb {
		return na < nb
	}
	return a < b
}

func splitTrailingNumber(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	num := 0
	for _, c := range s[i:] {
		num = num*10 + int(c-'0')
	}
	return s[:i], num, true
}
