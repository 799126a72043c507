// Package fault drives deterministic failure scenarios against the
// simulated grid: agent crashes and recoveries, link partitions between
// peers, and lossy links that drop a fraction of exchanges. The paper's
// resource-monitoring module (§2.2) only handles node outages inside one
// cluster; this package injects the wide-area failures the agent layer
// (§3) silently assumes away, so the defensive machinery — circuit
// breakers, advertisement TTLs, re-dispatch — can be exercised and
// measured (Experiment 4).
//
// Everything is scheduled in virtual time on the internal/sim clock and
// every random decision comes from a seeded generator, so a fault run is
// exactly as reproducible as a fault-free one.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies a scheduled fault event.
type Kind string

// Fault event kinds.
const (
	// Crash takes an agent (and the resource it fronts) off the grid:
	// every exchange to or from it fails, and its unstarted tasks are
	// handed back to the grid for re-dispatch.
	Crash Kind = "crash"
	// Recover brings a crashed agent back; peers re-learn of it through
	// their next successful pull (the circuit-breaker probe).
	Recover Kind = "recover"
	// Cut severs the link between two agents in both directions while
	// leaving both agents alive (a network partition).
	Cut Kind = "cut"
	// Heal restores a cut link.
	Heal Kind = "heal"
	// Lossy sets the loss rate of a link: each exchange over it fails
	// independently with probability Rate (deterministic given the plan
	// seed). Rate 0 restores a reliable link.
	Lossy Kind = "lossy"
	// Degrade slows a resource without killing it: every task that
	// *starts* on the agent's local scheduler while the degradation is in
	// effect takes Factor times its predicted execution time. The agent
	// keeps exchanging and accepting work — which is exactly what makes
	// degradation more insidious than a crash: the PACE predictions
	// steering dispatch stay optimistic while observed performance
	// drifts, the condition the migration policy (core.MigrationPolicy)
	// exists to detect.
	Degrade Kind = "degrade"
	// Restore ends a degradation, returning actual execution times to
	// the predicted values.
	Restore Kind = "restore"
)

// Event is one scheduled state change of a fault plan.
type Event struct {
	At     float64 `json:"at"` // virtual time the fault takes effect
	Kind   Kind    `json:"kind"`
	Agent  string  `json:"agent,omitempty"` // Crash/Recover/Degrade/Restore target
	A      string  `json:"a,omitempty"`     // Cut/Heal/Lossy link endpoints
	B      string  `json:"b,omitempty"`
	Rate   float64 `json:"rate,omitempty"`   // Lossy loss probability in [0, 1]
	Factor float64 `json:"factor,omitempty"` // Degrade execution-time multiplier, > 0 (3 = tasks run 3x slower)
}

func (e Event) String() string {
	switch e.Kind {
	case Crash, Recover, Restore:
		return fmt.Sprintf("t=%-6g %-7s %s", e.At, e.Kind, e.Agent)
	case Degrade:
		return fmt.Sprintf("t=%-6g %-7s %s factor=%g", e.At, e.Kind, e.Agent, e.Factor)
	case Lossy:
		return fmt.Sprintf("t=%-6g %-7s %s-%s rate=%g", e.At, e.Kind, e.A, e.B, e.Rate)
	default:
		return fmt.Sprintf("t=%-6g %-7s %s-%s", e.At, e.Kind, e.A, e.B)
	}
}

// Plan is a deterministic fault scenario: a set of events plus the seed
// for lossy-link decisions. Its JSON form is a scenario file's faults
// section.
type Plan struct {
	Seed   uint64  `json:"seed,omitempty"` // lossy-link RNG seed (0 is a valid seed)
	Events []Event `json:"events"`
}

// Sorted returns the events ordered by time (stable for equal times, so
// the declaration order breaks ties deterministically).
func (p Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every event against the set of known agent names.
func (p Plan) Validate(known map[string]bool) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s) at negative time %g", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case Crash, Recover:
			if !known[ev.Agent] {
				return fmt.Errorf("fault: event %d (%s) names unknown agent %q", i, ev.Kind, ev.Agent)
			}
		case Degrade, Restore:
			if !known[ev.Agent] {
				return fmt.Errorf("fault: event %d (%s) names unknown agent %q", i, ev.Kind, ev.Agent)
			}
			if ev.Kind == Degrade && ev.Factor <= 0 {
				return fmt.Errorf("fault: event %d degrades %s by non-positive factor %g", i, ev.Agent, ev.Factor)
			}
		case Cut, Heal, Lossy:
			if !known[ev.A] || !known[ev.B] {
				return fmt.Errorf("fault: event %d (%s) names unknown link %s-%s", i, ev.Kind, ev.A, ev.B)
			}
			if ev.A == ev.B {
				return fmt.Errorf("fault: event %d (%s) links %s to itself", i, ev.Kind, ev.A)
			}
			if ev.Kind == Lossy && (ev.Rate < 0 || ev.Rate > 1) {
				return fmt.Errorf("fault: event %d loss rate %g outside [0, 1]", i, ev.Rate)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// String renders the schedule one event per line, in time order.
func (p Plan) String() string {
	var b strings.Builder
	for _, ev := range p.Sorted() {
		fmt.Fprintln(&b, ev.String())
	}
	return b.String()
}

// DegradeWindow is the interval [From, To) in which tasks starting on a
// resource run slower than predicted. To stays +Inf when the plan never
// restores the resource.
type DegradeWindow struct {
	From, To float64
	Factor   float64
}

// DegradeWindows derives the named agent's degradation intervals from
// the plan, in time order. The windows are a static function of the plan
// — unlike the live registry state they answer "was this resource
// degraded at time t" for any t, which is what the scheduler's slowdown
// hook needs (a task's slowdown is decided by its start time, not by
// whatever event happens to be processed next).
func (p Plan) DegradeWindows(agent string) []DegradeWindow {
	var out []DegradeWindow
	open := -1 // index into out of the unclosed window
	for _, ev := range p.Sorted() {
		if ev.Agent != agent {
			continue
		}
		switch ev.Kind {
		case Degrade:
			if open >= 0 {
				out[open].To = ev.At // a new factor supersedes the old one
			}
			out = append(out, DegradeWindow{From: ev.At, To: math.Inf(1), Factor: ev.Factor})
			open = len(out) - 1
		case Restore:
			if open >= 0 {
				out[open].To = ev.At
				open = -1
			}
		}
	}
	return out
}

// Slowdown returns the named agent's slowdown hook: the execution-time
// multiplier in effect for a task starting at time t (1 when undegraded).
// The windows are derived once, here, not on every task launch.
func (p Plan) Slowdown(agent string) func(t float64) float64 {
	windows := p.DegradeWindows(agent)
	return func(t float64) float64 {
		for _, w := range windows {
			if t >= w.From && t < w.To {
				return w.Factor
			}
		}
		return 1
	}
}

// Degraded returns the distinct agents the plan ever degrades, sorted.
func (p Plan) Degraded() []string {
	seen := map[string]bool{}
	for _, ev := range p.Events {
		if ev.Kind == Degrade {
			seen[ev.Agent] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Crashed returns the distinct agents the plan ever crashes, sorted.
func (p Plan) Crashed() []string {
	seen := map[string]bool{}
	for _, ev := range p.Events {
		if ev.Kind == Crash {
			seen[ev.Agent] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
