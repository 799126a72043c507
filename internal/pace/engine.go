package pace

import (
	"fmt"
	"math"
	"sync/atomic"
)

// EvalStats records engine activity. The paper motivates the evaluation
// cache with these numbers: a GA population of 50 over 20 tasks needs 1000
// evaluations per generation at ~0.01 s each, so without reuse the GA
// would spend ~10 s per generation (§2.2).
type EvalStats struct {
	Evaluations uint64 // model evaluations actually performed
	CacheHits   uint64
	CacheMisses uint64
}

// SimulatedCost returns the virtual seconds the performed evaluations
// would have cost at perEval seconds each. The paper quotes ~0.01 s per
// PACE evaluation.
func (s EvalStats) SimulatedCost(perEval float64) float64 {
	return float64(s.Evaluations) * perEval
}

// DefaultEvalCost is the per-evaluation cost quoted in §2.2, in seconds.
const DefaultEvalCost = 0.01

// cell is one entry of a value row: the prediction for k processors and
// eq. 10's running minimum over 1..k, kept next to the values it is
// derived from so that min_k t(app, hw, k) is a table read.
type cell struct {
	v   float64 // t(app, hw, k); NaN marks an absent entry
	min float64 // min over j = 1..k of t(app, hw, j); NaN unless every j <= k is present
}

// predTable is the engine's prediction table: a dense [app][hw][nprocs]
// matrix that its engine grows in place. Rows and columns are only ever
// appended, so an index stays valid for the engine's lifetime.
type predTable struct {
	apps  map[string]int // application model name -> row
	hws   map[string]int // hardware column key -> column
	names []string       // row -> application model name
	slots []int32        // AppModel.slot -> 1 + row of the first model seen with that slot; 0 = none
	vals  [][][]cell     // [app][hw][nprocs-1]
}

// row finds app's row without hashing its name when it can: the model's
// library slot is a hint, confirmed by comparing names (models of the same
// name share a row, as they always have). Models outside a library, or
// whose slot another library's model took first, go through the name map.
func (t *predTable) row(app *AppModel) (int, bool) {
	if app.slot < len(t.slots) {
		if ai := int(t.slots[app.slot]) - 1; ai >= 0 && t.names[ai] == app.Name {
			return ai, true
		}
	}
	ai, ok := t.apps[app.Name]
	return ai, ok
}

// at returns the entry for app on column col and nprocs processors, if
// the table has a slot for it; the prediction is memoised unless its v is
// NaN. It is the one read of the table, so a hit is one call.
func (t *predTable) at(app *AppModel, col, nprocs int) (cell, bool) {
	ai, ok := t.row(app)
	if !ok {
		return cell{}, false
	}
	row := t.vals[ai][col]
	if nprocs-1 >= len(row) {
		return cell{}, false
	}
	return row[nprocs-1], true
}

// column returns hw's column, appending an empty one to every row if the
// table has none yet.
func (t *predTable) column(hw string) int {
	hi, ok := t.hws[hw]
	if !ok {
		hi = len(t.hws)
		t.hws[hw] = hi
		for a := range t.vals {
			t.vals[a] = append(t.vals[a], nil)
		}
	}
	return hi
}

// put memoises (app, col, nprocs) -> v, appending a row for app if the
// table has none. The new entry may complete a prefix of its value row;
// the row's running minima are filled in from nprocs on, in the
// k-ascending, first-strict-minimum order of eq. 10's scan, so a memoised
// minimum is bit for bit the scan's.
func (t *predTable) put(app *AppModel, col, nprocs int, v float64) {
	ai, ok := t.row(app)
	if !ok {
		ai = len(t.names)
		t.apps[app.Name] = ai
		t.names = append(t.names, app.Name)
		for len(t.slots) <= app.slot {
			t.slots = append(t.slots, 0)
		}
		if t.slots[app.slot] == 0 {
			t.slots[app.slot] = int32(ai) + 1
		}
		t.vals = append(t.vals, make([][]cell, len(t.hws)))
	}
	row := t.vals[ai][col]
	for len(row) < nprocs {
		row = append(row, cell{v: math.NaN(), min: math.NaN()})
	}
	row[nprocs-1].v = v
	best := math.Inf(1)
	if nprocs > 1 {
		best = row[nprocs-2].min
	}
	for k := nprocs - 1; k < len(row) && !math.IsNaN(best) && !math.IsNaN(row[k].v); k++ {
		if row[k].v < best {
			best = row[k].v
		}
		row[k].min = best
	}
	t.vals[ai][col] = row
}

// Engine is the PACE evaluation engine: it combines an application model
// with a hardware (resource) model at run time to produce performance data
// (Fig. 1). A demand-driven cache of past evaluations sits between the
// scheduler and the engine (§2.2); the cache can be disabled for the
// ablation study.
//
// An Engine belongs to one goroutine: the one that runs its grid, or the
// farm node that calls it under its own lock. Only Stats and CacheLen may
// be called from another goroutine (a telemetry scrape), so the counters
// they read are atomic and nothing else is.
type Engine struct {
	table        predTable
	cacheEnabled bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	evals   atomic.Uint64
	entries atomic.Int64 // memoised evaluations; ResetStats keeps them
}

// NewEngine returns an engine with the evaluation cache enabled.
func NewEngine() *Engine { return newEngine(true) }

// NewEngineWithoutCache returns an engine that re-evaluates every request,
// used by the cache ablation bench.
func NewEngineWithoutCache() *Engine { return newEngine(false) }

func newEngine(cached bool) *Engine {
	return &Engine{
		table:        predTable{apps: map[string]int{}, hws: map[string]int{}},
		cacheEnabled: cached,
	}
}

// Predict returns t_x(ρ, σ): the predicted execution time in seconds of
// app on nprocs homogeneous nodes of hardware hw. Processor counts above
// the model's natural range are handled by the model itself (the Table 1
// models clamp internally: e.g. sweep3d does not improve past 16
// processors, §4.1).
func (e *Engine) Predict(app *AppModel, hw Hardware, nprocs int) (float64, error) {
	if err := hw.Valid(); err != nil {
		return 0, err
	}
	return e.predict(app, hw, e.table.column(hw.Name), nprocs)
}

// MustPredict is Predict for callers that have already validated their
// inputs (e.g. the inner GA loop over registered models); it panics on
// error.
func (e *Engine) MustPredict(app *AppModel, hw Hardware, nprocs int) float64 {
	v, err := e.Predict(app, hw, nprocs)
	if err != nil {
		panic(err)
	}
	return v
}

// Column is one hardware model's column of an engine's prediction table,
// resolved once: a scheduler predicts on the same hardware for its whole
// life, and with the column in hand a cache hit is two slice indexings and
// the hit counter — no string is hashed. It is only a faster way to ask
// the engine: hits, misses and evaluations are counted exactly as Predict
// counts them, entries are memoised on demand as Predict memoises them,
// and on an engine without a cache every call evaluates.
type Column struct {
	e   *Engine
	hw  Hardware
	col int
}

// Column resolves hw's column, adding an empty one to the table if no
// prediction on hw has been asked for yet.
func (e *Engine) Column(hw Hardware) (*Column, error) {
	if err := hw.Valid(); err != nil {
		return nil, err
	}
	return &Column{e: e, hw: hw, col: e.table.column(hw.Name)}, nil
}

// Predict is Engine.Predict on the column's hardware.
func (c *Column) Predict(app *AppModel, nprocs int) (float64, error) {
	return c.e.predict(app, c.hw, c.col, nprocs)
}

// Best returns eq. 10's fastest time for app on the column's hardware
// with up to n nodes: min over k = 1..n of t(app, hw, k), scanning k
// upward and keeping the first strict minimum, so it is bit for bit the
// minimum of a k-loop of Predict. On a cached engine it is read from the
// table wherever every k <= n has been predicted; such a hit is not a
// prediction and moves no counter. Otherwise — and always on an engine
// without a cache — it is that k-loop, counted like any Predict, and an
// error is returned, never memoised. n < 1 gives +Inf.
func (c *Column) Best(app *AppModel, n int) (float64, error) {
	if c.e.cacheEnabled && app != nil && n >= 1 {
		if m, ok := c.e.table.at(app, c.col, n); ok && !math.IsNaN(m.min) {
			return m.min, nil
		}
	}
	best := math.Inf(1)
	for k := 1; k <= n; k++ {
		d, err := c.Predict(app, k)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// MustPredict is Predict for callers that have already validated their
// inputs; it panics on error.
func (c *Column) MustPredict(app *AppModel, nprocs int) float64 {
	v, err := c.Predict(app, nprocs)
	if err != nil {
		panic(err)
	}
	return v
}

// predict serves a prediction from column col of the table, or evaluates
// the model and, on a cached engine, memoises the result.
func (e *Engine) predict(app *AppModel, hw Hardware, col, nprocs int) (float64, error) {
	if app == nil {
		return 0, fmt.Errorf("pace: nil application model")
	}
	if nprocs < 1 {
		return 0, fmt.Errorf("pace: prediction requires at least one processor, got %d", nprocs)
	}
	if e.cacheEnabled {
		if c, ok := e.table.at(app, col, nprocs); ok && !math.IsNaN(c.v) {
			e.hits.Add(1)
			return c.v, nil
		}
		e.misses.Add(1)
	}
	ref, err := app.Eval(map[string]float64{"n": float64(nprocs)})
	if err != nil {
		return 0, err
	}
	v := ref * hw.Factor
	e.evals.Add(1)
	if e.cacheEnabled {
		e.table.put(app, col, nprocs, v)
		e.entries.Add(1)
	}
	return v, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EvalStats {
	return EvalStats{
		Evaluations: e.evals.Load(),
		CacheHits:   e.hits.Load(),
		CacheMisses: e.misses.Load(),
	}
}

// ResetStats zeroes the counters without touching the cache.
func (e *Engine) ResetStats() {
	e.hits.Store(0)
	e.misses.Store(0)
	e.evals.Store(0)
}

// CacheEnabled reports whether the demand-driven cache is active.
func (e *Engine) CacheEnabled() bool { return e.cacheEnabled }

// CacheLen returns the number of memoised evaluations.
func (e *Engine) CacheLen() int { return int(e.entries.Load()) }
