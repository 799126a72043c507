package membership

import (
	"repro/internal/agent"
)

// Rebalancer defaults; see Policy.
const (
	// DefaultCheckPeriod is the load-check cadence in simulated seconds —
	// 1.5× the §4.1 advertisement pull period, so checks and pulls do not
	// permanently coincide and a check usually sees fresh adverts.
	DefaultCheckPeriod = 15.0
	// DefaultImbalance is the neighbourhood-pressure ratio (heaviest
	// parent over lightest candidate) that counts as lopsided.
	DefaultImbalance = 3.0
	// DefaultWindow is the hysteresis: consecutive lopsided checks — with
	// the same parent on top — required before a subtree moves.
	DefaultWindow = 2
	// DefaultCooldown is the minimum virtual time between moves, so one
	// hot spot does not thrash the tree.
	DefaultCooldown = 60.0
	// DefaultMaxFanIn caps an adoptive parent's direct neighbours: every
	// child is another advert exchange per pull tick, and a parent with
	// too much fan-in becomes the next bottleneck.
	DefaultMaxFanIn = 6
	// DefaultMinLoad is the absolute pressure floor: below it the ratio
	// test is meaningless (an idle grid makes 4-vs-0 look "lopsided") and
	// a move would reshape the tree on warm-up noise.
	DefaultMinLoad = 10
)

// Policy configures the load-driven rebalancer. Each check period the
// rebalancer scores every attached agent's neighbourhood pressure — its
// own queue depth plus dispatch traffic, plus the same for its direct
// lower neighbours — and when the heaviest parent stays more than
// Imbalance times above the lightest eligible adoptive parent for Window
// consecutive checks, the heaviest child subtree is re-homed under that
// lighter parent via an audited propose→detach→attach chain.
type Policy struct {
	CheckPeriod float64 `json:"check_period,omitempty"` // <= 0 selects DefaultCheckPeriod
	Imbalance   float64 `json:"imbalance,omitempty"`    // <= 0 selects DefaultImbalance
	Window      int     `json:"window,omitempty"`       // <= 0 selects DefaultWindow
	Cooldown    float64 `json:"cooldown,omitempty"`     // <= 0 selects DefaultCooldown
	MaxFanIn    int     `json:"max_fan_in,omitempty"`   // <= 0 selects DefaultMaxFanIn
	MinLoad     int     `json:"min_load,omitempty"`     // <= 0 selects DefaultMinLoad
}

// WithDefaults resolves the zero fields.
func (p Policy) WithDefaults() Policy {
	if p.CheckPeriod <= 0 {
		p.CheckPeriod = DefaultCheckPeriod
	}
	if p.Imbalance <= 0 {
		p.Imbalance = DefaultImbalance
	}
	if p.Window <= 0 {
		p.Window = DefaultWindow
	}
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultCooldown
	}
	if p.MaxFanIn <= 0 {
		p.MaxFanIn = DefaultMaxFanIn
	}
	if p.MinLoad <= 0 {
		p.MinLoad = DefaultMinLoad
	}
	return p
}

// Move is one planned re-homing: the subtree rooted at Subtree leaves
// parent From and attaches under To.
type Move struct {
	Subtree  string
	From, To string
	FromLoad int // From's neighbourhood pressure at the decision
	ToLoad   int // To's neighbourhood pressure at the decision
}

// Rebalancer holds the hysteresis state between checks. It only decides;
// executing a Move (the tree mutation, the trace chain) is the grid's
// job, which reports completed moves back through Moved.
type Rebalancer struct {
	pol Policy
	reg *Registry

	streakOf string // parent currently on top of the pressure ranking
	streak   int    // consecutive checks it has been lopsided
	lastMove float64
}

// NewRebalancer creates a rebalancer over the registry's hierarchy.
func NewRebalancer(reg *Registry, pol Policy) *Rebalancer {
	return &Rebalancer{pol: pol.WithDefaults(), reg: reg, lastMove: negInf}
}

// Policy returns the resolved policy.
func (r *Rebalancer) Policy() Policy { return r.pol }

// Moved records that a planned move was carried out, starting the
// cooldown and clearing the hysteresis streak.
func (r *Rebalancer) Moved(now float64) {
	r.lastMove = now
	r.streak = 0
	r.streakOf = ""
}

// Plan runs one load check. load reports an agent's own pressure signal
// (queue depth plus dispatch traffic since the last check — the caller
// owns the exact mix); capacity reports its relative service rate
// (processing nodes over hardware slowdown — any consistent scale works,
// and nil means every agent scores equal). The decision and every
// tie-break follow the hierarchy's natural name order, so a check is
// deterministic for a given snapshot.
func (r *Rebalancer) Plan(now float64, load func(name string) int, capacity func(name string) float64) (Move, bool) {
	agents := r.reg.Hierarchy().Agents()
	if len(agents) < 3 {
		return Move{}, false // nothing to re-home: a 2-agent tree has one shape
	}

	// Neighbourhood pressure: own load plus the direct lowers' loads —
	// what this parent and its children currently carry. Deliberately
	// local (not whole-subtree sums): an ancestor must not score as the
	// sum of everything below it, or the head would always be "heaviest".
	pressure := make(map[string]int, len(agents))
	kids := make(map[string][]*agent.Agent, len(agents))
	for _, a := range agents {
		p := load(a.Name())
		for _, l := range a.Lowers() {
			if la, ok := l.(*agent.Agent); ok {
				p += load(la.Name())
				kids[a.Name()] = append(kids[a.Name()], la)
			}
		}
		pressure[a.Name()] = p
	}

	// The heaviest parent (an agent with children). Agents() is in
	// natural name order, so strict > makes the first-named win ties.
	var heavy *agent.Agent
	heavyLoad := -1
	for _, a := range agents {
		if len(kids[a.Name()]) == 0 {
			continue
		}
		if pressure[a.Name()] > heavyLoad {
			heavy, heavyLoad = a, pressure[a.Name()]
		}
	}
	if heavy == nil {
		return Move{}, false
	}
	// Absolute floor before the ratio even matters: a near-idle grid has
	// noisy single-digit pressures, and acting on those reshapes the tree
	// for no gain (or into a degenerate chain the planner cannot undo).
	if heavyLoad < r.pol.MinLoad {
		r.streak, r.streakOf = 0, ""
		return Move{}, false
	}

	// The heaviest child subtree under it is what would move.
	var child *agent.Agent
	childLoad := -1
	for _, c := range kids[heavy.Name()] {
		if pressure[c.Name()] > childLoad {
			child, childLoad = c, pressure[c.Name()]
		}
	}

	// The adoptive parent: outside the moved subtree, not the heavy parent
	// itself, with fan-in room for one more child, and individually idle
	// enough to satisfy the imbalance ratio (+1 so an idle grid never
	// divides by zero). Among those, the largest capacity wins — a hot
	// subtree should land next to the fastest spare machine, not merely
	// the emptiest one (often a slow leaf that turns into the next hot
	// spot) — with lighter load and then name order breaking ties.
	moved := subtreeNames(child)
	var target *agent.Agent
	targetLoad := 0
	targetCap := 0.0
	for _, a := range agents {
		if a == heavy || moved[a.Name()] {
			continue
		}
		if len(a.Lowers()) >= r.pol.MaxFanIn {
			continue
		}
		p := pressure[a.Name()]
		if float64(heavyLoad) <= r.pol.Imbalance*float64(p+1) {
			continue
		}
		c := 1.0
		if capacity != nil {
			c = capacity(a.Name())
		}
		if target == nil || c > targetCap || (c == targetCap && p < targetLoad) {
			target, targetLoad, targetCap = a, p, c
		}
	}
	// Hysteresis: the same parent must stay lopsided — no eligible target
	// means no breach — for Window consecutive checks.
	if target == nil {
		r.streak, r.streakOf = 0, ""
		return Move{}, false
	}
	if r.streakOf != heavy.Name() {
		r.streakOf, r.streak = heavy.Name(), 0
	}
	r.streak++
	if r.streak < r.pol.Window || now-r.lastMove < r.pol.Cooldown {
		return Move{}, false
	}
	return Move{
		Subtree: child.Name(), From: heavy.Name(), To: target.Name(),
		FromLoad: heavyLoad, ToLoad: targetLoad,
	}, true
}

// subtreeNames collects the names in the in-process subtree rooted at a.
func subtreeNames(a *agent.Agent) map[string]bool {
	out := map[string]bool{}
	var walk func(x *agent.Agent)
	walk = func(x *agent.Agent) {
		out[x.Name()] = true
		for _, l := range x.Lowers() {
			if la, ok := l.(*agent.Agent); ok {
				walk(la)
			}
		}
	}
	walk(a)
	return out
}
