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
// The (task, k) durations are fixed for one instance, so the first of
// GreedySeed, Cost, Breakdown and Build after Reset fills a [task][k−1]
// table of them, asking the predictor once per cell; everything after
// reads it by index. Cost and Breakdown reuse one scratch Builder, and
// Build another, so a Problem is not safe for concurrent use. Use it by
// pointer only: a copy would share its builders.
type Problem struct {
	Tasks         []Task
	Res           Resource
	Base          float64 // the scheduling instant
	Predict       Predictor
	Weights       CostWeights
	FrontWeighted bool // front-weighted idle time (§2.1); ablation knob

	filled   bool      // durs holds the current instance's table; Reset clears it
	durs     []float64 // the duration table, see Builder
	instance uint64    // bumped by Reset; a builder of an older one is re-pointed

	cost, result *costBuilder // Cost's and Build's

	// GreedySeed scratch.
	busy    []float64
	byAvail []int
}

// costBuilder is a Builder and the problem instance it points at.
type costBuilder struct {
	Builder
	instance uint64
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
// building one per event, and its builders follow when next used.
func (p *Problem) Reset(tasks []Task, res Resource, base float64, predict Predictor) {
	p.Tasks, p.Res, p.Base, p.Predict = tasks, res, base, predict
	p.instance++
	p.filled = false
}

// table returns the instance's duration table, filling it on first use.
func (p *Problem) table() []float64 {
	if !p.filled {
		p.durs = fillDurations(p.durs, p.Tasks, p.Res.NumNodes, p.Predict)
		p.filled = true
	}
	return p.durs
}

// current returns b, or a new builder when b is nil, pointed at p's
// current instance. A new builder keeps a gap record if it is to cost.
func (p *Problem) current(b *costBuilder, cost bool) *costBuilder {
	if b == nil {
		b = new(costBuilder)
		if cost {
			b.gaps = new(gapRecord)
		}
	} else if b.instance == p.instance {
		return b
	}
	if err := p.Res.Validate(); err != nil {
		panic(fmt.Sprintf("schedule: Cost on invalid problem: %v", err))
	}
	b.point(p.Tasks, p.Res, p.table())
	b.instance = p.instance
	return b
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

// Cost builds the genome's schedule and returns its eq. 8 cost.
// Solution validation is hoisted out of this inner loop: the genetic
// operators maintain legitimacy, so only externally supplied solutions
// (seeds) need a Solution.Validate, once per Plan, not once per cost
// evaluation.
func (p *Problem) Cost(g Solution) float64 {
	return p.Breakdown(g).Combined
}

// Breakdown builds the genome's schedule and evaluates eq. 8, returning
// every term behind the combined cost. g must be legitimate.
func (p *Problem) Breakdown(g Solution) CostBreakdown {
	p.cost = p.current(p.cost, true)
	p.cost.Build(g, p.Base)
	return p.cost.breakdown(p.Weights, p.FrontWeighted)
}

// Build times the legitimate solution g with the instance's duration
// table. The schedule is the problem's own: it is valid until the next
// Build or Reset. Its builder keeps no gap record, as nothing costs it.
func (p *Problem) Build(g Solution) *Schedule {
	p.result = p.current(p.result, false)
	return p.result.Build(g, p.Base)
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
