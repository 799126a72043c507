package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// sample is one (metric, workload) cell of a result file: the median
// over the file's runs of that workload and their quartiles. A file with
// a single run of the workload takes the quartiles of that run's units.
type sample struct {
	median, q1, q3 float64
	n              int
}

func (s sample) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.median)
}

// cells reduces a result file to samples, keyed by workload then metric.
func cells(f resultFile, pick func(runResult) map[string]stat) map[string]map[string]sample {
	values := map[string]map[string][]stat{}
	for _, r := range f.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]stat{}
		}
		for name, s := range pick(r) {
			values[r.Workload][name] = append(values[r.Workload][name], s)
		}
	}
	out := map[string]map[string]sample{}
	for w, metrics := range values {
		out[w] = map[string]sample{}
		for name, stats := range metrics {
			if len(stats) == 1 {
				s := stats[0]
				out[w][name] = sample{median: s.Value, q1: s.Q1, q3: s.Q3, n: s.N}
				continue
			}
			vs := make([]float64, len(stats))
			for i, s := range stats {
				vs[i] = s.Value
			}
			q1, q3 := quartiles(vs)
			out[w][name] = sample{median: median(vs), q1: q1, q3: q3, n: len(vs)}
		}
	}
	return out
}

// inputs says what the runs of one workload in a result file were given:
// the unit size and the seeds. Two files measure the same work only where
// these agree.
type inputs struct {
	unitRequests []int
	seeds        []uint64
}

func inputsOf(f resultFile) map[string]inputs {
	out := map[string]inputs{}
	for _, r := range f.Runs {
		in := out[r.Workload]
		if !slices.Contains(in.unitRequests, r.UnitRequests) {
			in.unitRequests = append(in.unitRequests, r.UnitRequests)
		}
		if !slices.Contains(in.seeds, r.Seed) {
			in.seeds = append(in.seeds, r.Seed)
		}
		out[r.Workload] = in
	}
	for _, in := range out {
		slices.Sort(in.unitRequests)
		slices.Sort(in.seeds)
	}
	return out
}

// delta is the plain relative change of b against a.
func delta(a, b sample) float64 {
	if a.median == 0 {
		return 0
	}
	return (b.median - a.median) / math.Abs(a.median)
}

// judge compares one cell of the baseline a with the same cell of b.
func judge(def metricDef, a, b sample) string {
	if a.median == b.median {
		return "same"
	}
	// worse is how much worse b is, as a share of a; negative is better.
	worse := delta(a, b)
	if a.median == 0 {
		worse = math.Copysign(math.Inf(1), b.median)
	}
	if def.Better == higher {
		worse = -worse
	}
	spread := math.Max(a.spread(), b.spread())
	switch {
	case def.Bound > 0 && spread > def.Bound:
		// The runs disagree with themselves by more than the bound, so
		// the comparison cannot tell a regression from noise.
		return "unresolved"
	case worse > def.Bound:
		return "worse"
	case -worse > spread:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, their quartiles, the metric's bound and a verdict, then the
// per-layer metrics both files carry. It reports whether any row is
// worse. Cost per request follows the backlog, so files whose units differ
// in size are refused; where the seeds differ the simulated statistics,
// which the seed decides, are left unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	endToEnd := func(r runResult) map[string]stat { return r.EndToEnd }
	perLayer := func(r runResult) map[string]stat { return r.PerLayer }
	a, b := cells(fa, endToEnd), cells(fb, endToEnd)
	la, lb := cells(fa, perLayer), cells(fb, perLayer)
	ia, ib := inputsOf(fa), inputsOf(fb)

	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}

	for _, wl := range names {
		if !slices.Equal(ia[wl].unitRequests, ib[wl].unitRequests) {
			return false, fmt.Errorf("%s: units of %v requests in %s, of %v in %s: not the same work",
				wl, ia[wl].unitRequests, pathA, ib[wl].unitRequests, pathB)
		}
	}
	for _, wl := range names {
		sameSeeds := slices.Equal(ia[wl].seeds, ib[wl].seeds)
		fmt.Fprintf(w, "%s\n", wl)
		if !sameSeeds {
			fmt.Fprintf(w, "  seeds differ (%v, %v): the simulated statistics are not compared\n", ia[wl].seeds, ib[wl].seeds)
		}
		fmt.Fprintf(w, "  %-30s %12s %25s %12s %25s %8s %7s  %s\n", "metric", "a", "a quartiles", "b", "b quartiles", "change", "bound", "verdict")
		for _, def := range metricDefs {
			ca, okA := a[wl][def.Name]
			cb, okB := b[wl][def.Name]
			if def.Scope == layer || !okA || !okB {
				continue
			}
			verdict := judge(def, ca, cb)
			if !sameSeeds && slices.Contains(simStatisticNames, def.Name) {
				verdict = "unresolved"
			}
			if verdict == "worse" {
				worse = true
			}
			bound := "exact"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			}
			fmt.Fprintf(w, "  %-30s %12.6g %25s %12.6g %25s %+7.1f%% %7s  %s\n",
				def.Name+" ["+def.Unit+"]", ca.median, quartileText(ca), cb.median, quartileText(cb), delta(ca, cb)*100, bound, verdict)
		}
		for _, def := range metricDefs {
			ca, okA := la[wl][def.Name]
			cb, okB := lb[wl][def.Name]
			if def.Scope != layer || !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "  %-30s %12.6g %25s %12.6g %25s %+7.1f%%\n",
				def.Name+" ["+def.Unit+"]", ca.median, quartileText(ca), cb.median, quartileText(cb), delta(ca, cb)*100)
		}
	}
	return worse, nil
}

func quartileText(s sample) string {
	if s.n < 2 {
		return "-"
	}
	return fmt.Sprintf("%.5g..%.5g (n=%d)", s.q1, s.q3, s.n)
}
