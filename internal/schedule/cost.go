package schedule

// CostWeights are the W_m, W_i, W_c of eq. 8, weighting makespan ω,
// weighted idle time φ and contract (deadline) penalty θ in the combined
// cost. The paper leaves the values unspecified; DefaultWeights biases
// towards meeting deadlines, matching the stated goal of minimising
// makespan and idle time "whilst meeting the deadlines set for each task".
type CostWeights struct {
	Makespan float64 // W_m
	Idle     float64 // W_i
	Deadline float64 // W_c
}

// DefaultWeights returns the weights used by the case study. The idle
// weight dominates the makespan weight so the GA prefers keeping nodes
// busy (wider allocations, denser packing) over shaving the horizon —
// the balance that reproduces the paper's utilisation gains in
// experiment 2 (see the idle-weighting ablation bench).
func DefaultWeights() CostWeights {
	return CostWeights{Makespan: 1, Idle: 3, Deadline: 2}
}

// CostBreakdown exposes the individual metrics behind a combined cost,
// for diagnostics and the idle-weighting ablation.
type CostBreakdown struct {
	Makespan    float64 // ω_k relative to the scheduling instant
	Idle        float64 // φ_k: front-weighted idle time, averaged per node
	IdleRaw     float64 // unweighted idle time, averaged per node
	ContractPen float64 // θ_k: total deadline overrun in task-seconds
	Combined    float64 // f_c of eq. 8
}

// breakdown evaluates the combined cost function (eq. 8) for the schedule
// of b's last Build:
//
//	f_c = (W_m·ω + W_i·φ + W_c·θ) / (W_m + W_i + W_c)
//
// ω is the makespan measured from the scheduling instant. φ is the
// weighted idle time: idle at the front of the schedule is "particularly
// undesirable" (§2.1) because it is wasted first and least likely to be
// recovered, so a pocket of idle time occupying [a, b] within the horizon
// [base, makespan] is weighted linearly from 2 (at the front) down to 1
// (at the makespan). θ is the contract penalty: the total amount by which
// task completions overrun their deadlines. φ is averaged over nodes so
// all three terms share seconds as their unit.
//
// Each node's gaps come from the record Build kept as it placed tasks,
// so one evaluation costs O(tasks + gaps + nodes). They are visited
// node-major, in placement order, each closed by the gap from the node's
// last task to the makespan: the order in which a scan of the placement
// list once per node meets them, so the sums are the same bit for bit.
func (b *Builder) breakdown(w CostWeights, frontWeighted bool) CostBreakdown {
	s := &b.sched
	var out CostBreakdown
	out.Makespan = s.Makespan - s.Base
	if out.Makespan < 0 {
		out.Makespan = 0
	}

	n := len(s.NodeBusy)
	horizon := s.Makespan - s.Base
	g := &b.gaps
	var idleW, idleRaw float64
	for i := 0; i < n; i++ {
		var booked []Window
		if s.Booked != nil {
			booked = s.Booked[i]
		}
		for _, gap := range g.gaps[i*g.stride : i*g.stride+g.n[i]] {
			r, w := gapCost(gap.Start, gap.End, booked, s.Base, horizon, frontWeighted)
			idleRaw += r
			idleW += w
		}
		if last := g.last(i, s.NodeBusy); s.Makespan > last {
			r, w := gapCost(last, s.Makespan, booked, s.Base, horizon, frontWeighted)
			idleRaw += r
			idleW += w
		}
	}
	if n > 0 {
		out.Idle = idleW / float64(n)
		out.IdleRaw = idleRaw / float64(n)
	}

	for _, it := range s.Items {
		if d := b.tasks[it.TaskPos].Deadline; it.End > d {
			out.ContractPen += it.End - d
		}
	}

	den := w.Makespan + w.Idle + w.Deadline
	if den <= 0 {
		den = 1
	}
	out.Combined = (w.Makespan*out.Makespan + w.Idle*out.Idle + w.Deadline*out.ContractPen) / den
	return out
}

// gapCost accounts the gap [a, b] on one node as idle time, minus any
// reserved windows inside it: booked time is sold to a reservation
// holder, so charging the scheduler idle-time cost for it would punish
// exactly the plans that correctly leave it free. With no booked windows
// (the only state without the reservation subsystem) it reduces to the
// single weightedGap accumulation and is bit-identical to it.
func gapCost(a, b float64, booked []Window, base, horizon float64, frontWeighted bool) (raw, weighted float64) {
	if len(booked) == 0 {
		return b - a, weightedGap(a, b, base, horizon, frontWeighted)
	}
	cur := a
	for _, w := range booked {
		if w.Start >= b {
			break
		}
		if !w.Overlaps(cur, b) {
			continue
		}
		if w.Start > cur {
			raw += w.Start - cur
			weighted += weightedGap(cur, w.Start, base, horizon, frontWeighted)
		}
		if w.End > cur {
			cur = w.End
		}
		if cur >= b {
			return raw, weighted
		}
	}
	raw += b - cur
	weighted += weightedGap(cur, b, base, horizon, frontWeighted)
	return raw, weighted
}

// weightedGap integrates the idle weight over the gap [a, b]. With front
// weighting the weight decreases linearly from 2 at the schedule base to 1
// at the makespan; without it the weight is uniformly 1 (the ablation
// baseline).
func weightedGap(a, b, base, horizon float64, frontWeighted bool) float64 {
	d := b - a
	if d <= 0 {
		return 0
	}
	if !frontWeighted || horizon <= 0 {
		return d
	}
	mid := (a+b)/2 - base
	w := 2 - mid/horizon // linear from 2 (front) to 1 (makespan)
	return d * w
}
