// Package membership makes the agent hierarchy dynamic. The paper's tree
// is fixed at start-up; this package layers runtime membership on top of
// agent.Hierarchy: agents join and gracefully leave on the virtual clock
// (the failure half — crashes, advert TTL, circuit breakers — already
// lives in internal/fault and internal/agent), and a load-driven
// Rebalancer re-homes whole subtrees under less-loaded parents when the
// tree goes lopsided.
//
// The package is glue-free by design: it mutates the hierarchy and the
// agents' soft state (advert caches, breaker history) but schedules no
// events, draws no randomness and emits no traces itself. The core grid
// owns the clock, the drain of a leaving agent's queue and the lifecycle
// stream; scenario and the wire protocol translate their churn specs and
// join/leave ops into calls here.
package membership

import (
	"fmt"
	"math"

	"repro/internal/agent"
	"repro/internal/pace"
)

// Join schedules one agent's arrival: at Time, a new resource of the
// given hardware and node count attaches under Parent (or, when Parent
// has already left by then, under Parent's closest still-active
// ancestor).
type Join struct {
	Time         float64  `json:"time"`
	Name         string   `json:"name"`
	Hardware     string   `json:"hardware"`
	Nodes        int      `json:"nodes"`
	Parent       string   `json:"parent"`
	Environments []string `json:"environments,omitempty"` // defaults to the grid-wide {"test"}
}

// Leave schedules one agent's graceful departure at Time: its subtree is
// re-homed under its parent, its queued tasks are drained back into the
// grid, and its advertisements expire immediately everywhere.
type Leave struct {
	Time float64 `json:"time"`
	Name string  `json:"name"`
}

// Plan is a scripted churn sequence, the dynamic-membership counterpart
// of a fault.Plan. A nil plan disables scripted churn. Its JSON form is
// the joins and leaves of a scenario file's churn section.
type Plan struct {
	Joins  []Join  `json:"joins,omitempty"`
	Leaves []Leave `json:"leaves,omitempty"`
}

// Validate checks the plan against the static topology: head is the tree
// root (which may never leave), base the initial agent names. Each join
// must introduce a fresh name under a parent that exists by its join
// time; each agent may leave at most once, after it has joined.
func (p *Plan) Validate(head string, base []string) error {
	known := make(map[string]float64, len(base)+len(p.Joins)) // name -> join time (0 for base)
	for _, n := range base {
		known[n] = 0
	}
	joined := map[string]bool{}
	for i, j := range p.Joins {
		if j.Name == "" {
			return fmt.Errorf("membership: join %d has no agent name", i)
		}
		if _, dup := known[j.Name]; dup || joined[j.Name] {
			return fmt.Errorf("membership: join %d: agent %q already exists", i, j.Name)
		}
		if j.Time < 0 {
			return fmt.Errorf("membership: join %d (%s): negative time %g", i, j.Name, j.Time)
		}
		if _, ok := pace.LookupHardware(j.Hardware); !ok {
			return fmt.Errorf("membership: join %d (%s): unknown hardware %q", i, j.Name, j.Hardware)
		}
		if j.Nodes < 1 || j.Nodes > 64 {
			return fmt.Errorf("membership: join %d (%s): node count %d outside [1, 64]", i, j.Name, j.Nodes)
		}
		if j.Parent == "" {
			return fmt.Errorf("membership: join %d (%s): no parent", i, j.Name)
		}
		pt, ok := known[j.Parent]
		if !ok {
			return fmt.Errorf("membership: join %d (%s): unknown parent %q", i, j.Name, j.Parent)
		}
		if pt > j.Time {
			return fmt.Errorf("membership: join %d (%s): parent %q joins later, at %g", i, j.Name, j.Parent, pt)
		}
		known[j.Name] = j.Time
		joined[j.Name] = true
	}
	left := map[string]bool{}
	for i, l := range p.Leaves {
		if l.Name == "" {
			return fmt.Errorf("membership: leave %d has no agent name", i)
		}
		if l.Name == head {
			return fmt.Errorf("membership: leave %d: %s is the head of the hierarchy and cannot leave", i, head)
		}
		jt, ok := known[l.Name]
		if !ok {
			return fmt.Errorf("membership: leave %d: unknown agent %q", i, l.Name)
		}
		if left[l.Name] {
			return fmt.Errorf("membership: leave %d: agent %q leaves twice", i, l.Name)
		}
		if l.Time < jt {
			return fmt.Errorf("membership: leave %d (%s): leave at %g precedes join at %g", i, l.Name, l.Time, jt)
		}
		left[l.Name] = true
	}
	return nil
}

// Events returns the total number of scheduled membership events, for
// event-budget accounting.
func (p *Plan) Events() int {
	if p == nil {
		return 0
	}
	return len(p.Joins) + len(p.Leaves)
}

// LastEventTime returns the virtual time of the plan's latest event.
func (p *Plan) LastEventTime() float64 {
	last := 0.0
	if p == nil {
		return last
	}
	for _, j := range p.Joins {
		if j.Time > last {
			last = j.Time
		}
	}
	for _, l := range p.Leaves {
		if l.Time > last {
			last = l.Time
		}
	}
	return last
}

// Stats counts what the membership subsystem did during a run.
type Stats struct {
	Joins   int // agents attached at runtime
	Leaves  int // agents that gracefully left
	Drained int // queued tasks re-placed off leaving agents
	Rehomed int // lower neighbours re-homed under a leaver's parent
	Moves   int // subtrees moved by the rebalancer
}

// LeaveResult reports one departure: the detached agent, the parent it
// left (which adopted its subtree), and the re-homed child names in
// their former link order.
type LeaveResult struct {
	Agent   *agent.Agent
	Parent  *agent.Agent
	Rehomed []string
}

// Registry tracks the live membership of one hierarchy: which agents are
// currently attached, and — for departed ones — where they last hung, so
// late traffic addressed to them can be rerouted along the ancestry
// chain. All mutations go through the registry, which re-validates the
// tree (acyclic, connected, single head) after every one; a mutation
// that would break the invariant is rejected with the tree unchanged.
type Registry struct {
	hier       *agent.Hierarchy
	active     map[string]bool
	lastParent map[string]string // departed agent -> parent at leave time
	stats      Stats
}

// NewRegistry wraps the hierarchy with its initial membership.
func NewRegistry(h *agent.Hierarchy) *Registry {
	r := &Registry{hier: h, active: map[string]bool{}, lastParent: map[string]string{}}
	for _, n := range h.Names() {
		r.active[n] = true
	}
	return r
}

// Hierarchy returns the tree the registry manages.
func (r *Registry) Hierarchy() *agent.Hierarchy { return r.hier }

// Stats returns the registry's activity counters.
func (r *Registry) Stats() Stats { return r.stats }

// Active reports whether the named agent is currently attached.
func (r *Registry) Active(name string) bool { return r.active[name] }

// Route resolves a dispatch target: the agent itself while attached, or
// its closest still-active ancestor once it has left (following the
// lastParent chain recorded at each departure).
func (r *Registry) Route(name string) (string, bool) {
	for hops := 0; hops <= len(r.lastParent)+1; hops++ {
		if r.active[name] {
			return name, true
		}
		next, ok := r.lastParent[name]
		if !ok {
			return "", false
		}
		name = next
	}
	return "", false
}

// Join attaches a pre-built agent under the named parent (rerouted to an
// active ancestor when the parent already left) and returns the parent
// actually used.
func (r *Registry) Join(a *agent.Agent, parent string) (string, error) {
	if a == nil {
		return "", fmt.Errorf("membership: join: nil agent")
	}
	if r.active[a.Name()] {
		return "", fmt.Errorf("membership: join: agent %s already attached", a.Name())
	}
	target, ok := r.Route(parent)
	if !ok {
		return "", fmt.Errorf("membership: join %s: no active ancestor for parent %q", a.Name(), parent)
	}
	if err := r.hier.Attach(target, a); err != nil {
		return "", err
	}
	if err := r.hier.Validate(); err != nil {
		return "", fmt.Errorf("membership: join %s broke the tree: %w", a.Name(), err)
	}
	r.active[a.Name()] = true
	delete(r.lastParent, a.Name())
	r.stats.Joins++
	return target, nil
}

// Leave detaches the named agent: its in-process lower neighbours are
// re-homed under its parent (Hierarchy.Detach) and every structural
// neighbour forgets its advertisement and breaker history on the spot
// (agent.Unlink), so the departed agent vanishes from service tables at
// the leave instant instead of ageing out through the advert TTL. The
// caller still owns the departing queue — draining it is the grid's job,
// because re-placement needs the clock and the lifecycle stream.
func (r *Registry) Leave(name string) (LeaveResult, error) {
	if !r.active[name] {
		return LeaveResult{}, fmt.Errorf("membership: leave: agent %q not attached", name)
	}
	a, ok := r.hier.Lookup(name)
	if !ok {
		return LeaveResult{}, fmt.Errorf("membership: leave: agent %q not in hierarchy", name)
	}
	var rehomed []string
	for _, l := range a.Lowers() {
		if la, ok := l.(*agent.Agent); ok {
			rehomed = append(rehomed, la.Name())
		}
	}
	parent, err := r.hier.Detach(name)
	if err != nil {
		return LeaveResult{}, err
	}
	if err := r.hier.Validate(); err != nil {
		return LeaveResult{}, fmt.Errorf("membership: leave %s broke the tree: %w", name, err)
	}
	r.active[name] = false
	r.lastParent[name] = parent.Name()
	r.stats.Leaves++
	r.stats.Rehomed += len(rehomed)
	return LeaveResult{Agent: a, Parent: parent, Rehomed: rehomed}, nil
}

// Rehome moves the named agent's subtree under a new parent (the
// rebalancer's detach→attach step) and returns the former parent.
func (r *Registry) Rehome(name, newParent string) (*agent.Agent, error) {
	if !r.active[name] || !r.active[newParent] {
		return nil, fmt.Errorf("membership: rehome %s under %s: both must be attached", name, newParent)
	}
	old, err := r.hier.Rehome(name, newParent)
	if err != nil {
		return nil, err
	}
	if err := r.hier.Validate(); err != nil {
		return nil, fmt.Errorf("membership: rehome %s broke the tree: %w", name, err)
	}
	r.stats.Moves++
	return old, nil
}

// CountDrained records queued tasks the grid re-placed off a leaver.
func (r *Registry) CountDrained(n int) { r.stats.Drained += n }

// negInf is the rebalancer's "never" timestamp.
var negInf = math.Inf(-1)
