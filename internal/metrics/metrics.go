// Package metrics implements the three performance statistics of §3.3
// used to characterise grid load balancing: the average advance time of
// application execution completion ε (eq. 11), the average resource
// utilisation rate υ (eqs. 12–13) and the load balancing level β
// (eqs. 14–15), computed per grid resource and for the overall grid.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/scheduler"
)

// Window is the measurement period t of eq. 12.
type Window struct {
	Start float64
	End   float64
}

// Length returns the window duration.
func (w Window) Length() float64 { return w.End - w.Start }

// Report holds the §3.3 statistics for one scope (a resource or the grid).
type Report struct {
	Name      string    `json:"name"`
	Tasks     int       `json:"tasks"`    // M: tasks completed in this scope
	Epsilon   float64   `json:"eps_s"`    // ε seconds; negative when most deadlines fail (eq. 11)
	Upsilon   float64   `json:"ups_pct"`  // υ percent in [0, 100] (eq. 13)
	Deviation float64   `json:"-"`        // d: mean square deviation of node utilisation (eq. 14), in percent points
	Beta      float64   `json:"beta_pct"` // β percent (eq. 15)
	NodeUtil  []float64 `json:"-"`        // υ_i percent per node (eq. 12)
}

// GridReport aggregates per-resource reports plus the overall grid row of
// Table 3.
type GridReport struct {
	PerResource []Report
	Total       Report
	Window      Window
}

// ResourceByName returns the named per-resource report.
func (g GridReport) ResourceByName(name string) (Report, bool) {
	for _, r := range g.PerResource {
		if r.Name == name {
			return r, true
		}
	}
	return Report{}, false
}

// Compute derives the §3.3 metrics from execution records. nodesByResource
// gives each resource's node count N_r; resources with no records still
// appear (fully idle). The window is the period t over which utilisation
// is measured; use WindowOver to derive it from the records themselves.
func Compute(recs []scheduler.Record, nodesByResource map[string]int, w Window) (GridReport, error) {
	if w.Length() <= 0 {
		return GridReport{}, fmt.Errorf("metrics: empty window [%g, %g]", w.Start, w.End)
	}
	names := make([]string, 0, len(nodesByResource))
	folds := make(map[string]*fold, len(nodesByResource))
	nodes := 0
	for name, n := range nodesByResource {
		if n <= 0 {
			return GridReport{}, fmt.Errorf("metrics: resource %q has %d nodes", name, n)
		}
		names = append(names, name)
		folds[name] = &fold{busy: make([]float64, n)}
		nodes += n
	}
	slices.Sort(names)

	for _, r := range recs {
		f, ok := folds[r.Resource]
		if !ok {
			return GridReport{}, fmt.Errorf("metrics: record for unknown resource %q", r.Resource)
		}
		f.tasks++
		f.advance += r.Deadline - r.End
		span := math.Min(r.End, w.End) - math.Max(r.Start, w.Start)
		if span <= 0 {
			continue
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if i >= len(f.busy) {
				return GridReport{}, fmt.Errorf("metrics: record on %q uses node %d of %d", r.Resource, i, len(f.busy))
			}
			f.busy[i] += span
		}
	}

	out := GridReport{Window: w, PerResource: make([]Report, len(names))}
	allUtil := make([]float64, 0, nodes)
	totalTasks, totalAdvance := 0, 0.0
	for i, name := range names {
		f := folds[name]
		out.PerResource[i] = summarise(name, f, w)
		allUtil = append(allUtil, out.PerResource[i].NodeUtil...)
		totalTasks += f.tasks
		totalAdvance += f.advance
	}
	out.Total = Report{Name: "Total", Tasks: totalTasks, NodeUtil: allUtil}
	if totalTasks > 0 {
		out.Total.Epsilon = totalAdvance / float64(totalTasks)
	}
	out.Total.Upsilon, out.Total.Deviation, out.Total.Beta = balance(allUtil)
	return out, nil
}

// fold is one resource's records summed in record order: the task count,
// eq. 11's Σ(δ − end) and each node's busy seconds inside the window.
type fold struct {
	tasks   int
	advance float64
	busy    []float64
}

// WindowOver returns the measurement window [0, latest completion] over
// the records, with a minimum end of atLeast (e.g. the request phase
// length) so fully idle experiments still have a period.
func WindowOver(recs []scheduler.Record, atLeast float64) Window {
	end := atLeast
	for _, r := range recs {
		if r.End > end {
			end = r.End
		}
	}
	if end <= 0 {
		end = 1
	}
	return Window{Start: 0, End: end}
}

// summarise turns a resource's fold into its report; the busy seconds
// become the node utilisations in place.
func summarise(name string, f *fold, w Window) Report {
	rep := Report{Name: name, Tasks: f.tasks, NodeUtil: f.busy}
	t := w.Length()
	for i, b := range f.busy {
		rep.NodeUtil[i] = b / t * 100
	}
	if f.tasks > 0 {
		rep.Epsilon = f.advance / float64(f.tasks)
	}
	rep.Upsilon, rep.Deviation, rep.Beta = balance(rep.NodeUtil)
	return rep
}

// balance computes eqs. 13–15 over per-node utilisation percentages:
// the mean υ, the mean square deviation d and the load balancing level
// β = (1 − d/υ)·100%. β is 0 when the resource is entirely idle (υ = 0)
// and is floored at 0 — by eq. 15 "the most effective load balancing is
// achieved when d equals zero"; d > υ simply means no balance at all.
func balance(util []float64) (upsilon, d, beta float64) {
	if len(util) == 0 {
		return 0, 0, 0
	}
	for _, u := range util {
		upsilon += u
	}
	upsilon /= float64(len(util))
	var ss float64
	for _, u := range util {
		ss += (u - upsilon) * (u - upsilon)
	}
	d = math.Sqrt(ss / float64(len(util)))
	if upsilon == 0 {
		return 0, d, 0
	}
	beta = (1 - d/upsilon) * 100
	if beta < 0 {
		beta = 0
	}
	return upsilon, d, beta
}
