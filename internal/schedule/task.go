// Package schedule implements the task scheduling model of §2.1: parallel
// tasks with PACE application models and deadlines, schedules that allocate
// a set of homogeneous processing nodes and a unison start time to each
// task, the two-part solution coding scheme of Fig. 2 with its specialised
// crossover and mutation operators, and the combined cost function of
// eq. 8 (makespan, front-weighted idle time and deadline contract penalty).
package schedule

import (
	"fmt"

	"repro/internal/pace"
)

// MaxNodes bounds the node count of a single local grid resource; node
// sets are stored as bitmasks in a uint64. The case study uses 16 nodes
// per resource.
const MaxNodes = 64

// Task is one T_j of the model: a parallel application with a performance
// model σ_j, an arrival time, and a user-required execution deadline δ_j
// (absolute virtual time).
type Task struct {
	ID       int    // scheduler-local ID, unique per resource only
	ReqID    uint64 // grid-wide request identity; 0 outside a grid run
	App      *pace.AppModel
	Arrival  float64
	Deadline float64
}

func (t Task) String() string {
	app := "<nil>"
	if t.App != nil {
		app = t.App.Name
	}
	return fmt.Sprintf("task{#%d %s arrival=%g deadline=%g}", t.ID, app, t.Arrival, t.Deadline)
}

// Predictor supplies t_x(ρ_j, σ_j): the predicted execution time of an
// application on nprocs homogeneous nodes of the local resource. In the
// full system this is the PACE evaluation engine specialised to the
// resource's hardware model.
type Predictor func(app *pace.AppModel, nprocs int) float64

// Resource is the node pool visible to one scheduling decision: the number
// of nodes and each node's earliest availability (absolute virtual time,
// i.e. when the tasks already committed to it finish).
type Resource struct {
	NumNodes int
	Avail    []float64
	// Booked lists, per node, the advance-reservation windows the
	// schedule must leave untouched: best-effort tasks are placed around
	// them (see AdjustStart) and the booked time does not count as idle
	// in the cost function. Each node's windows are sorted by start and
	// non-overlapping. nil — the default, and the only state reachable
	// without the reservation subsystem — changes nothing.
	Booked [][]Window
	// Phys names the physical node behind each of the NumNodes plan-space
	// nodes, ascending — the up nodes of a resource that has lost some. A
	// policy that keeps per-task state across scheduling events (FIFO's
	// fixed allocations) keys it on these, so a node going down or coming
	// back renumbers nothing. nil means plan-space node i is physical
	// node i.
	Phys []int
}

// NewResource returns a resource whose nodes are all free at time 0.
func NewResource(numNodes int) Resource {
	if numNodes < 1 || numNodes > MaxNodes {
		panic(fmt.Sprintf("schedule: node count %d outside [1, %d]", numNodes, MaxNodes))
	}
	return Resource{NumNodes: numNodes, Avail: make([]float64, numNodes)}
}

// Clone returns an independent copy of the resource.
func (r Resource) Clone() Resource {
	avail := make([]float64, len(r.Avail))
	copy(avail, r.Avail)
	var booked [][]Window
	if r.Booked != nil {
		booked = make([][]Window, len(r.Booked))
		for i, ws := range r.Booked {
			booked[i] = append([]Window(nil), ws...)
		}
	}
	return Resource{NumNodes: r.NumNodes, Avail: avail, Booked: booked, Phys: append([]int(nil), r.Phys...)}
}

// Validate checks internal consistency.
func (r Resource) Validate() error {
	if r.NumNodes < 1 || r.NumNodes > MaxNodes {
		return fmt.Errorf("schedule: node count %d outside [1, %d]", r.NumNodes, MaxNodes)
	}
	if len(r.Avail) != r.NumNodes {
		return fmt.Errorf("schedule: %d availability entries for %d nodes", len(r.Avail), r.NumNodes)
	}
	if r.Phys != nil {
		if len(r.Phys) != r.NumNodes {
			return fmt.Errorf("schedule: %d physical node indices for %d nodes", len(r.Phys), r.NumNodes)
		}
		for i, p := range r.Phys {
			if p < 0 || p >= MaxNodes || (i > 0 && p <= r.Phys[i-1]) {
				return fmt.Errorf("schedule: physical node indices %v not ascending within [0, %d)", r.Phys, MaxNodes)
			}
		}
	}
	if r.Booked != nil {
		if len(r.Booked) != r.NumNodes {
			return fmt.Errorf("schedule: %d booked-window lists for %d nodes", len(r.Booked), r.NumNodes)
		}
		for i, ws := range r.Booked {
			for k, w := range ws {
				if w.End < w.Start {
					return fmt.Errorf("schedule: node %d window %d ends (%g) before it starts (%g)", i, k, w.End, w.Start)
				}
				if k > 0 && w.Start < ws[k-1].End {
					return fmt.Errorf("schedule: node %d windows %d and %d overlap or are unsorted", i, k-1, k)
				}
			}
		}
	}
	return nil
}

// EarliestAvail returns the smallest availability across nodes.
func (r Resource) EarliestAvail() float64 {
	if len(r.Avail) == 0 {
		return 0
	}
	min := r.Avail[0]
	for _, a := range r.Avail[1:] {
		if a < min {
			min = a
		}
	}
	return min
}

// LatestAvail returns the largest availability across nodes: the earliest
// time at which every node is free, which is the ω freetime the local
// scheduler advertises to its agent (§3.2).
func (r Resource) LatestAvail() float64 {
	var max float64
	for _, a := range r.Avail {
		if a > max {
			max = a
		}
	}
	return max
}
