package schedule

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Problem adapts the scheduling model to the generic GA engine: genomes
// are two-part Solutions, the cost is eq. 8 evaluated on the built
// schedule. It implements ga.Problem[Solution].
//
// Build is the one placement loop over a Solution; Cost and Breakdown
// are Build plus eq. 8 over the idle gaps it recorded. The (task, k)
// durations are fixed for one instance, so the first of GreedySeed, Cost,
// Breakdown and Build after Reset validates the resource and fills a
// [task][k−1] table of them, asking the predictor once per cell;
// everything after reads it by index. Every build reuses the problem's
// one schedule and gap record, so a warmed Problem builds and costs
// without allocating, and is not safe for concurrent use. Use it by
// pointer only: a copy would share its buffers.
type Problem struct {
	Tasks         []Task
	Res           Resource
	Base          float64 // the scheduling instant
	Predict       Predictor
	Weights       CostWeights
	FrontWeighted bool // front-weighted idle time (§2.1); ablation knob

	filled bool      // durs holds the current instance's table; Reset clears it
	durs   []float64 // durs[pos*Res.NumNodes+k-1]: Tasks[pos] on k nodes
	sched  Schedule  // of the last Build
	gaps   gapRecord // the idle gaps of sched, per node

	// GreedySeed scratch.
	busy    []float64
	byAvail []int
}

// NewProblem returns a Problem with default weights and front-weighted
// idle time enabled.
func NewProblem(tasks []Task, res Resource, base float64, predict Predictor) *Problem {
	p := &Problem{Weights: DefaultWeights(), FrontWeighted: true}
	p.Reset(tasks, res, base, predict)
	return p
}

// Reset re-points p at a new problem instance. Its scratch is kept: a
// scheduler that plans every arrival resets one Problem instead of
// building one per event.
func (p *Problem) Reset(tasks []Task, res Resource, base float64, predict Predictor) {
	p.Tasks, p.Res, p.Base, p.Predict = tasks, res, base, predict
	p.filled = false
}

// table returns the instance's duration table. Its first call after
// Reset validates the resource and fills the table.
func (p *Problem) table() []float64 {
	if !p.filled {
		if err := p.Res.Validate(); err != nil {
			panic(fmt.Sprintf("schedule: invalid problem: %v", err))
		}
		p.durs = fillDurations(p.durs, p.Tasks, p.Res.NumNodes, p.Predict)
		p.sched.Items = slices.Grow(p.sched.Items[:0], len(p.Tasks))
		p.filled = true
	}
	return p.durs
}

// Build times the legitimate solution g at the scheduling instant Base:
// each task in g's order, on the nodes g maps it to, no earlier than Base
// or its own arrival, for its duration in the instance's table, and each
// idle gap it closes recorded for Breakdown. The schedule is the
// problem's own: it is valid until the next Build, Cost, Breakdown or
// Reset. g is not re-validated: the genetic operators maintain
// legitimacy, and a scheduler validates its seeds once per plan.
func (p *Problem) Build(g Solution) *Schedule {
	durs := p.table()
	n := p.Res.NumNodes
	p.sched.Reset(p.Res, p.Base)
	p.gaps.reset(len(p.Tasks), n, p.Base)
	for _, taskPos := range g.Order {
		floor := p.Base
		if a := p.Tasks[taskPos].Arrival; a > floor {
			floor = a
		}
		mask := g.Maps[taskPos]
		p.sched.place(taskPos, mask, floor, durs[taskPos*n+bits.OnesCount64(mask)-1], &p.gaps)
	}
	return &p.sched
}

// Random makes dst a uniformly random legitimate solution.
func (p *Problem) Random(dst *Solution, rng *sim.RNG) {
	dst.randomize(len(p.Tasks), p.Res.NumNodes, rng)
}

// Crossover applies the two-part crossover of §2.1.
func (p *Problem) Crossover(c1, c2 *Solution, a, b Solution, rng *sim.RNG) {
	Crossover(c1, c2, a, b, p.Res.NumNodes, rng)
}

// Mutate applies the two-part mutation of §2.1 in place.
func (p *Problem) Mutate(g *Solution, rng *sim.RNG) {
	Mutate(g, p.Res.NumNodes, rng)
}

// Cost builds the genome's schedule and returns its eq. 8 cost. g must
// be legitimate (see Build).
func (p *Problem) Cost(g Solution) float64 {
	return p.Breakdown(g).Combined
}

// Breakdown builds the genome's schedule and evaluates eq. 8, returning
// every term behind the combined cost. g must be legitimate.
func (p *Problem) Breakdown(g Solution) CostBreakdown {
	p.Build(g)
	return p.breakdown()
}

// Copy makes dst a deep copy of src in dst's own storage.
func (p *Problem) Copy(dst *Solution, src Solution) {
	dst.Order = append(dst.Order[:0], src.Order...)
	dst.Maps = append(dst.Maps[:0], src.Maps...)
}

// Equal reports whether a and b are the same solution, which gives them
// the same Cost.
func (p *Problem) Equal(a, b Solution) bool {
	return slices.Equal(a.Order, b.Order) && slices.Equal(a.Maps, b.Maps)
}

// GreedySeed writes to dst a reasonable initial solution: tasks in
// arrival order, each allocated the node count that minimises its own
// completion time on the currently-best nodes. It gives the GA population
// a list-scheduling baseline to improve on and is also the shape of
// solution the previous scheduling round's best maps onto after task
// arrivals and departures.
func (p *Problem) GreedySeed(dst *Solution) {
	dst.resize(len(p.Tasks))
	p.busy = append(p.busy[:0], p.Res.Avail...)
	busy := p.busy
	n := p.Res.NumNodes
	durs := p.table()
	for taskPos, t := range p.Tasks {
		dst.Order[taskPos] = taskPos
		// The k cheapest nodes for every k are the first k of one order.
		p.byAvail = cheapestNodes(p.byAvail, busy)
		bestMask, bestEnd := uint64(0), 0.0
		var mask uint64
		start := maxf(p.Base, t.Arrival)
		for i, node := range p.byAvail[:n] {
			mask |= uint64(1) << uint(node)
			if busy[node] > start {
				start = busy[node] // the k nodes start in unison
			}
			end := start + durs[taskPos*n+i]
			if bestMask == 0 || end < bestEnd {
				bestMask, bestEnd = mask, end
			}
		}
		dst.Maps[taskPos] = bestMask
		for m := bestMask; m != 0; m &= m - 1 {
			busy[bits.TrailingZeros64(m)] = bestEnd
		}
	}
}

// cheapestNodes writes to order's storage the node indices sorted by
// availability, then index: a total order, so the sort algorithm does
// not matter.
func cheapestNodes(order []int, busy []float64) []int {
	order = order[:0]
	for i := range busy {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := cmp.Compare(busy[i], busy[j]); c != 0 {
			return c
		}
		return i - j
	})
	return order
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
