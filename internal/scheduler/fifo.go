package scheduler

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/pace"
	"repro/internal/schedule"
)

// FIFOPolicy is the first-come-first-served baseline of §4.1: tasks are
// scheduled strictly in arrival order, each receiving the resource
// allocation that minimises its own completion time at the moment it is
// first planned. "As soon as the current best solution is found, it is
// fixed and will not change as new tasks enter the system." The search
// picks the best of all 2^n − 1 possible allocations, but computes it
// from n candidates rather than enumerating them whenever no reservation
// window is booked.
//
// Because nothing planned ever moves, the plan for a queue is the plan for
// the queue without its last task plus one placement: Plan is a loop over
// Append, and a scheduler that kept the last plan calls Append alone.
type FIFOPolicy struct {
	// Exhaustive selects the paper's answer: the allocation its search
	// over all 2^n−1 subsets picks, node set and all. Without booked
	// windows that is computed from one threshold candidate per
	// cardinality; with them, by enumeration up to maxBookedSearchNodes
	// nodes. When false, the fast path is used: for each cardinality k
	// the k earliest-available nodes, optimal on a homogeneous resource.
	// Without booked windows both find an allocation with the minimal
	// completion time and minimal node count; within exact ties the
	// chosen node sets may differ (a property test pins down the
	// (end, cardinality) equivalence).
	Exhaustive bool

	// fixed is task ID -> the node mask fixed at first planning.
	fixed map[int]uint64

	sched schedule.Schedule // Plan's result, rebuilt in place on every call

	// Allocation search scratch, kept so that no search allocates once it
	// has run at the largest node count.
	byAvail []int     // nodes ordered by (availability, index)
	durs    []float64 // booked search: predicted duration by node count
	// maxAvail is the booked search's 2^n availability table, grown lazily
	// to the largest n searched under a booked window and then retained
	// (8·2^n bytes, 512 KB at 16 nodes). A policy that never plans around
	// a reservation never grows it.
	maxAvail []float64
}

// NewFIFOPolicy returns the baseline policy with the paper's exhaustive
// 2^n−1 allocation search, as used in experiment 1.
func NewFIFOPolicy() *FIFOPolicy {
	return &FIFOPolicy{Exhaustive: true, fixed: map[int]uint64{}}
}

// NewFastFIFOPolicy returns the baseline with the homogeneity-aware
// allocation search, used by the allocation-search ablation bench.
func NewFastFIFOPolicy() *FIFOPolicy {
	return &FIFOPolicy{fixed: map[int]uint64{}}
}

// Name implements Policy.
func (f *FIFOPolicy) Name() string { return "fifo" }

// Forget implements Policy.
func (f *FIFOPolicy) Forget(taskID int) { delete(f.fixed, taskID) }

// Plan implements Policy. Tasks already planned keep their fixed
// allocation; new tasks (in arrival order) are allocated greedily against
// the projected node availability. The returned schedule is the policy's
// own and is overwritten by the next Plan.
func (f *FIFOPolicy) Plan(tasks []schedule.Task, res schedule.Resource, now float64, predict schedule.Predictor) *schedule.Schedule {
	f.sched.Reset(res, now)
	for _, t := range tasks {
		f.Append(&f.sched, t, now, predict)
	}
	return &f.sched
}

// Append implements Appender: it places t behind the tasks already on
// plan, on its fixed allocation if it has one and otherwise on the
// allocation that completes it earliest given plan.NodeBusy, which it
// then fixes.
func (f *FIFOPolicy) Append(plan *schedule.Schedule, t schedule.Task, now float64, predict schedule.Predictor) {
	floor := now
	if t.Arrival > floor {
		floor = t.Arrival
	}
	if n := len(plan.Items); n > 0 && plan.Items[n-1].Start > floor {
		floor = plan.Items[n-1].Start // strict queue order: no backfilling
	}
	mask, planned := f.fixed[t.ID]
	if !planned {
		if f.Exhaustive {
			mask = f.bestAllocationExhaustive(plan.NodeBusy, plan.Booked, floor, t.App, predict)
		} else {
			mask = f.bestAllocationCandidates(plan.NodeBusy, plan.Booked, floor, t.App, predict, false)
		}
		f.fixed[t.ID] = mask
	}
	plan.Place(len(plan.Items), mask, floor, predict(t.App, bits.OnesCount64(mask)))
}

// maxBookedSearchNodes bounds the booked-window search of the exhaustive
// policy: up to this many nodes it tabulates all 2^n − 1 allocations
// (an 8·2^n-byte table, 128 MB at the bound); above it, it falls back to
// the n sorted candidates of the fast search, the one case in which the
// exhaustive policy is not exhaustive.
const maxBookedSearchNodes = 24

// bestAllocationExhaustive returns the allocation the paper's search over
// all 2^n − 1 node subsets picks: the earliest completion, ties broken
// towards fewer nodes and then the smaller mask value (determinism).
// Without booked windows a subset's completion only grows with its
// latest-available node, so n candidates find it (bestAllocationCandidates);
// booked windows make completion non-monotone, and up to
// maxBookedSearchNodes nodes the subsets are tabulated instead
// (bestAllocationBooked).
func (f *FIFOPolicy) bestAllocationExhaustive(busy []float64, booked [][]schedule.Window, floor float64, app *pace.AppModel, predict schedule.Predictor) uint64 {
	if len(booked) == 0 {
		return f.bestAllocationCandidates(busy, nil, floor, app, predict, true)
	}
	if len(busy) > maxBookedSearchNodes {
		return f.bestAllocationCandidates(busy, booked, floor, app, predict, false)
	}
	return f.bestAllocationBooked(busy, booked, floor, app, predict)
}

// bestAllocationCandidates exploits homogeneity: for a fixed cardinality
// k, the k earliest-available nodes complete earliest, so n candidates
// replace the 2^n − 1 subsets, compared by (end, count, mask) as the
// exhaustive search compares them. Without exact (fifo-fast) a size's
// mask is those k nodes; within exact ties the exhaustive search may pick
// others. With exact set, which callers pass only without booked
// windows, it is the mask the exhaustive search picks among the k-subsets
// that tie that end: the k lowest-index nodes whose own start,
// max(floor, availability), plus the duration rounds to no later than
// the end. Floating-point addition is monotone, so a subset ends by then
// exactly when each of its nodes does.
//
// With booked windows the k-earliest heuristic is no longer exact (a
// window can block precisely the earliest nodes), but each candidate's
// end is still computed honestly via AdjustStart, so the chosen
// allocation never overlaps a reservation once the builder places it.
func (f *FIFOPolicy) bestAllocationCandidates(busy []float64, booked [][]schedule.Window, floor float64, app *pace.AppModel, predict schedule.Predictor, exact bool) uint64 {
	n := len(busy)
	f.byAvail = f.byAvail[:0]
	for i := range busy {
		f.byAvail = append(f.byAvail, i)
	}
	// (availability, index) is a total order, so the result does not
	// depend on the sorting algorithm.
	slices.SortFunc(f.byAvail, func(i, j int) int {
		if c := cmp.Compare(busy[i], busy[j]); c != 0 {
			return c
		}
		return i - j
	})

	best := uint64(0)
	bestEnd := math.Inf(1)
	bestCount := n + 1
	var mask uint64
	start := floor
	for k := 1; k <= n; k++ {
		i := f.byAvail[k-1]
		mask |= uint64(1) << uint(i)
		if busy[i] > start {
			start = busy[i]
		}
		d := predict(app, k)
		adj := start
		if booked != nil {
			// Keep the incremental start untouched: the push is specific to
			// this candidate's mask and duration.
			adj = schedule.AdjustStart(booked, mask, start, d)
		}
		end := adj + d
		m := mask
		if exact {
			m = lowestEndingBy(busy, floor, d, end, k)
		}
		if end < bestEnd || (end == bestEnd && (k < bestCount || (k == bestCount && m < best))) {
			best, bestEnd, bestCount = m, end, k
		}
	}
	return best
}

// lowestEndingBy returns the k lowest-index nodes that, started at floor
// or once free, complete a run of d seconds by end.
func lowestEndingBy(busy []float64, floor, d, end float64, k int) uint64 {
	var m uint64
	for i, a := range busy {
		if a < floor {
			a = floor
		}
		if a+d <= end {
			m |= uint64(1) << uint(i)
			if k--; k == 0 {
				break
			}
		}
	}
	return m
}

// bestAllocationBooked is the exhaustive search under booked windows: it
// tries every non-empty node subset, pushing its start past any window
// the run would overlap, so a subset straddling a reservation is judged
// by the completion it can actually achieve. Subset start times come from
// an O(2^n) dynamic program,
// maxAvail(m) = max(maxAvail(m \ lowbit), avail(lowbit)).
func (f *FIFOPolicy) bestAllocationBooked(busy []float64, booked [][]schedule.Window, floor float64, app *pace.AppModel, predict schedule.Predictor) uint64 {
	n := len(busy)
	total := uint64(1) << uint(n)
	// Every entry read is written earlier in the loop (rest < m), so the
	// table is reused without clearing.
	if uint64(len(f.maxAvail)) < total {
		f.maxAvail = make([]float64, total)
	}
	maxAvail := f.maxAvail
	// Predicted durations depend only on cardinality; tabulate once.
	f.durs = slices.Grow(f.durs[:0], n+1)[:n+1]
	dur := f.durs
	for k := 1; k <= n; k++ {
		dur[k] = predict(app, k)
	}

	best := uint64(0)
	bestEnd := math.Inf(1)
	bestCount := n + 1
	for m := uint64(1); m < total; m++ {
		low := m & (-m)
		rest := m &^ low
		a := busy[bits.TrailingZeros64(low)]
		if rest != 0 && maxAvail[rest] > a {
			a = maxAvail[rest]
		}
		maxAvail[m] = a
		start := a
		if floor > start {
			start = floor
		}
		k := bits.OnesCount64(m)
		start = schedule.AdjustStart(booked, m, start, dur[k])
		end := start + dur[k]
		if end < bestEnd ||
			(end == bestEnd && (k < bestCount || (k == bestCount && m < best))) {
			best, bestEnd, bestCount = m, end, k
		}
	}
	return best
}
