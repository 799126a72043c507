package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// computeReference is Compute as it was before it folded each resource
// while walking the records: it regroups every record into a per-resource
// list and sums the advances of each list afterwards. Kept as the oracle
// the fold must match bit for bit.
func computeReference(recs []scheduler.Record, nodesByResource map[string]int, w Window) (GridReport, error) {
	if w.Length() <= 0 {
		return GridReport{}, fmt.Errorf("metrics: empty window [%g, %g]", w.Start, w.End)
	}
	names := make([]string, 0, len(nodesByResource))
	for name, n := range nodesByResource {
		if n <= 0 {
			return GridReport{}, fmt.Errorf("metrics: resource %q has %d nodes", name, n)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	busy := map[string][]float64{}
	for name, n := range nodesByResource {
		busy[name] = make([]float64, n)
	}
	perTasks := map[string][]scheduler.Record{}
	for _, r := range recs {
		nodes, ok := busy[r.Resource]
		if !ok {
			return GridReport{}, fmt.Errorf("metrics: record for unknown resource %q", r.Resource)
		}
		perTasks[r.Resource] = append(perTasks[r.Resource], r)
		span := overlap(r.Start, r.End, w)
		if span <= 0 {
			continue
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if i >= len(nodes) {
				return GridReport{}, fmt.Errorf("metrics: record on %q uses node %d of %d", r.Resource, i, len(nodes))
			}
			nodes[i] += span
		}
	}

	sumAdvance := func(recs []scheduler.Record) float64 {
		var s float64
		for _, r := range recs {
			s += r.Deadline - r.End
		}
		return s
	}
	out := GridReport{Window: w}
	var allUtil []float64
	var totalTasks int
	var totalAdvance float64
	for _, name := range names {
		recs := perTasks[name]
		rep := Report{Name: name, Tasks: len(recs), NodeUtil: make([]float64, len(busy[name]))}
		for i, b := range busy[name] {
			rep.NodeUtil[i] = b / w.Length() * 100
		}
		if len(recs) > 0 {
			rep.Epsilon = sumAdvance(recs) / float64(len(recs))
		}
		rep.Upsilon, rep.Deviation, rep.Beta = balance(rep.NodeUtil)
		out.PerResource = append(out.PerResource, rep)
		allUtil = append(allUtil, rep.NodeUtil...)
		totalTasks += rep.Tasks
		totalAdvance += sumAdvance(recs)
	}
	out.Total = Report{Name: "Total", Tasks: totalTasks, NodeUtil: allUtil}
	if totalTasks > 0 {
		out.Total.Epsilon = totalAdvance / float64(totalTasks)
	}
	out.Total.Upsilon, out.Total.Deviation, out.Total.Beta = balance(allUtil)
	return out, nil
}

func overlap(a, b float64, w Window) float64 {
	lo, hi := math.Max(a, w.Start), math.Min(b, w.End)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// sameReport reports the first field in which a and b differ by a single
// bit, or "" when they are the same.
func sameReport(a, b Report) string {
	floats := []struct {
		name string
		x, y float64
	}{
		{"eps", a.Epsilon, b.Epsilon},
		{"ups", a.Upsilon, b.Upsilon},
		{"d", a.Deviation, b.Deviation},
		{"beta", a.Beta, b.Beta},
	}
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	case a.Tasks != b.Tasks:
		return fmt.Sprintf("%s: tasks %d vs %d", a.Name, a.Tasks, b.Tasks)
	case len(a.NodeUtil) != len(b.NodeUtil):
		return fmt.Sprintf("%s: %d vs %d nodes", a.Name, len(a.NodeUtil), len(b.NodeUtil))
	}
	for _, f := range floats {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s: %s %v vs %v", a.Name, f.name, f.x, f.y)
		}
	}
	for i := range a.NodeUtil {
		if math.Float64bits(a.NodeUtil[i]) != math.Float64bits(b.NodeUtil[i]) {
			return fmt.Sprintf("%s: node %d util %v vs %v", a.Name, i, a.NodeUtil[i], b.NodeUtil[i])
		}
	}
	return ""
}

// randomRecords draws n records over the named resources, interleaved in
// no order, some of them starting or ending past the window [0, 1000]
// and some wholly outside it.
func randomRecords(rng *sim.RNG, n int, names []string, nodes map[string]int) []scheduler.Record {
	recs := make([]scheduler.Record, n)
	for i := range recs {
		res := names[rng.Intn(len(names))]
		mask := rng.Uint64() & (1<<nodes[res] - 1)
		if mask == 0 {
			mask = 1
		}
		start := rng.UniformIn(-100, 1200)
		end := start + rng.ExpFloat64()*80
		recs[i] = scheduler.Record{
			TaskID: i + 1, Resource: res, Mask: mask,
			Start: start, End: end, Deadline: start + rng.UniformIn(0, 300),
		}
	}
	return recs
}

// TestComputeMatchesReference holds the per-resource fold to the
// regrouping Compute it replaced, bit for bit, over random record sets
// on topologies with idle resources (no record at all).
func TestComputeMatchesReference(t *testing.T) {
	rng := sim.NewRNG(50)
	for trial := 0; trial < 200; trial++ {
		nodes := map[string]int{}
		var names []string
		for i := rng.IntIn(1, 12); i > 0; i-- {
			name := fmt.Sprintf("S%d", i)
			nodes[name] = rng.IntIn(1, 64)
			names = append(names, name)
		}
		// Records land on a prefix of the resources only: the rest idle.
		busy := names[:rng.IntIn(1, len(names))]
		recs := randomRecords(rng, rng.Intn(400), busy, nodes)
		w := Window{Start: 0, End: 1000}
		got, err := Compute(recs, nodes, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := computeReference(recs, nodes, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.PerResource) != len(want.PerResource) {
			t.Fatalf("trial %d: %d resources, reference %d", trial, len(got.PerResource), len(want.PerResource))
		}
		for i := range want.PerResource {
			if d := sameReport(got.PerResource[i], want.PerResource[i]); d != "" {
				t.Fatalf("trial %d: %s", trial, d)
			}
		}
		if d := sameReport(got.Total, want.Total); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if got.Window != want.Window {
			t.Fatalf("trial %d: window %v, reference %v", trial, got.Window, want.Window)
		}
	}
}
