package pace

import (
	"math"
	"sync"
	"testing"
)

// loopBest is eq. 10's k-loop of Predict, the oracle Column.Best must
// equal bit for bit.
func loopBest(t *testing.T, e *Engine, app *AppModel, hw Hardware, n int) float64 {
	t.Helper()
	best := math.Inf(1)
	for k := 1; k <= n; k++ {
		d, err := e.Predict(app, hw, k)
		if err != nil {
			t.Fatal(err)
		}
		if d < best {
			best = d
		}
	}
	return best
}

func builtinHardware(t *testing.T) []Hardware {
	t.Helper()
	var hws []Hardware
	for _, name := range HardwareNames() {
		hw, ok := LookupHardware(name)
		if !ok {
			t.Fatalf("hardware %q listed but not registered", name)
		}
		hws = append(hws, hw)
	}
	if len(hws) != 5 {
		t.Fatalf("%d built-in hardware models, want 5", len(hws))
	}
	return hws
}

// bestOrders are the node-count sequences the oracle queries in: a
// memoised minimum must not depend on which prefixes were filled first.
func bestOrders(max int) map[string][]int {
	asc, desc, inter := make([]int, 0, max), make([]int, 0, max), make([]int, 0, max)
	for n := 1; n <= max; n++ {
		asc = append(asc, n)
		desc = append(desc, max+1-n)
	}
	for lo, hi := 1, max; lo <= hi; lo, hi = lo+1, hi-1 {
		inter = append(inter, lo)
		if lo != hi {
			inter = append(inter, hi)
		}
	}
	return map[string][]int{"ascending": asc, "descending": desc, "interleaved": inter}
}

// TestColumnBestMatchesKLoop is the memo oracle: for every case-study
// application, every built-in hardware model and n = 1..64, in three
// query orders, each query after a single-k Predict at n, Best equals
// the k-loop minimum bit for bit — on a cached engine, where a repeated
// query is a table read that moves no counter, and on an uncached one,
// where every call evaluates all n node counts.
func TestColumnBestMatchesKLoop(t *testing.T) {
	const maxN = 64
	apps := CaseStudyLibrary().Models()
	hws := builtinHardware(t)
	ref := NewEngine()
	for order, ns := range bestOrders(maxN) {
		for _, cached := range []bool{true, false} {
			e := NewEngine()
			if !cached {
				e = NewEngineWithoutCache()
			}
			for _, hw := range hws {
				col, err := e.Column(hw)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range ns {
					for _, app := range apps {
						// A plan predicts single node counts, leaving
						// holes below n that Best must not skip.
						if _, err := col.Predict(app, n); err != nil {
							t.Fatal(err)
						}
						before := e.Stats()
						got, err := col.Best(app, n)
						if err != nil {
							t.Fatal(err)
						}
						want := loopBest(t, ref, app, hw, n)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, cached=%v: Best(%s, %s, %d) = %v, k-loop %v", order, cached, app.Name, hw.Name, n, got, want)
						}
						if !cached {
							if grew := e.Stats().Evaluations - before.Evaluations; grew != uint64(n) {
								t.Fatalf("%s: uncached Best(%s, %s, %d) evaluated %d times, want %d", order, app.Name, hw.Name, n, grew, n)
							}
						}
					}
				}
				if !cached {
					continue
				}
				// Every prefix is now complete: a second pass is pure
				// table reads.
				before := e.Stats()
				for _, n := range ns {
					for _, app := range apps {
						got, _ := col.Best(app, n)
						if want := loopBest(t, ref, app, hw, n); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: memoised Best(%s, %s, %d) = %v, k-loop %v", order, app.Name, hw.Name, n, got, want)
						}
					}
				}
				if after := e.Stats(); after != before {
					t.Fatalf("%s: memoised Best moved the counters: %+v -> %+v", order, before, after)
				}
			}
		}
	}
	col, _ := NewEngine().Column(SGIOrigin2000)
	if v, err := col.Best(apps[0], 0); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("Best over no node counts = %v, %v; want +Inf", v, err)
	}
}

// TestColumnBestDoesNotMemoiseErrors: a model whose evaluation fails at
// some k returns that error from every Best that reaches k, re-evaluating
// the failing k each time; the minimum below k stays available.
func TestColumnBestDoesNotMemoiseErrors(t *testing.T) {
	m, err := ParseModel(`application brittle { param n; let p = [5, 3, 4]; time = p[n - 1]; }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{true, false} {
		e := NewEngine()
		if !cached {
			e = NewEngineWithoutCache()
		}
		col, err := e.Column(SGIOrigin2000)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := col.Best(m, 3); err != nil || v != 3 {
			t.Fatalf("cached=%v: Best(brittle, 3) = %v, %v; want 3", cached, v, err)
		}
		entries := e.CacheLen()
		for i := 0; i < 3; i++ {
			before := e.Stats()
			if _, err := col.Best(m, 5); err == nil {
				t.Fatalf("cached=%v, call %d: Best past the failing node count succeeded", cached, i)
			}
			after := e.Stats()
			if cached && after.CacheMisses != before.CacheMisses+1 {
				t.Fatalf("call %d: misses %d -> %d, want the failing k evaluated again", i, before.CacheMisses, after.CacheMisses)
			}
			if !cached && after.Evaluations != before.Evaluations+3 {
				t.Fatalf("call %d: uncached evaluations %d -> %d, want +3", i, before.Evaluations, after.Evaluations)
			}
			if e.CacheLen() != entries {
				t.Fatalf("cached=%v: a failed Best memoised entries: %d -> %d", cached, entries, e.CacheLen())
			}
		}
		if v, err := col.Best(m, 3); err != nil || v != 3 {
			t.Fatalf("cached=%v: Best(brittle, 3) after the errors = %v, %v; want 3", cached, v, err)
		}
	}
}

// TestColumnBestParallel races Best callers over one engine, each on its
// own query order; run under -race it checks the table extension that
// memoises the minimum. Every caller sees the oracle's values.
func TestColumnBestParallel(t *testing.T) {
	const maxN, workers = 32, 8
	apps := CaseStudyLibrary().Models()
	hws := builtinHardware(t)
	ref := NewEngine()
	want := map[[2]string][]float64{}
	for _, app := range apps {
		for _, hw := range hws {
			row := make([]float64, maxN+1)
			for n := 1; n <= maxN; n++ {
				row[n] = loopBest(t, ref, app, hw, n)
			}
			want[[2]string{app.Name, hw.Name}] = row
		}
	}
	e := NewEngine()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < maxN*len(hws); i++ {
				hw := hws[(i+w)%len(hws)]
				n := 1 + (i*7+w*5)%maxN
				col, err := e.Column(hw)
				if err != nil {
					t.Error(err)
					return
				}
				for _, app := range apps {
					got, err := col.Best(app, n)
					if err != nil {
						t.Error(err)
						return
					}
					if exp := want[[2]string{app.Name, hw.Name}][n]; got != exp {
						t.Errorf("worker %d: Best(%s, %s, %d) = %v, want %v", w, app.Name, hw.Name, n, got, exp)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
