package pace

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
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

// hitShards stripes the cache-hit counter so concurrent GA workers do not
// serialise on a single cache line; the shard is picked from the processor
// count, which varies across the inner Build loop.
const hitShards = 16

type paddedCounter struct {
	v atomic.Uint64
	_ [56]byte // pad to a cache line so shards do not false-share
}

// cell is one entry of a value row: the prediction for k processors and
// eq. 10's running minimum over 1..k, kept next to the values it is
// derived from so that min_k t(app, hw, k) is a table read.
type cell struct {
	v   float64 // t(app, hw, k); NaN marks an absent entry
	min float64 // min over j = 1..k of t(app, hw, j); NaN unless every j <= k is present
}

// predTable is the engine's immutable prediction table: a dense
// [app][hw][nprocs] matrix. Readers access it through an atomic pointer
// without taking any lock; a miss builds an extended copy under the engine
// mutex and republishes it (copy-on-write), so after warm-up the table is
// effectively sealed and every Predict is lock-free. Rows and columns are
// only ever appended, so an index stays valid in every later table.
type predTable struct {
	apps  map[string]int // application model name -> row
	hws   map[string]int // hardware column key -> column
	names []string       // row -> application model name
	slots []int32        // AppModel.slot -> 1 + row of the first model seen with that slot; 0 = none
	vals  [][][]cell     // [app][hw][nprocs-1]
	count int            // populated entries
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
	if !ok || col >= len(t.vals[ai]) {
		return cell{}, false
	}
	row := t.vals[ai][col]
	if nprocs-1 >= len(row) {
		return cell{}, false
	}
	return row[nprocs-1], true
}

// grow returns a copy of t that has a column for hw and, when app is not
// nil, a row for app, with their indices (ai is -1 without an app). Value
// rows are immutable and shared with t.
func (t *predTable) grow(app *AppModel, hw string) (nt *predTable, ai, hi int) {
	nt = &predTable{
		apps:  maps.Clone(t.apps),
		hws:   maps.Clone(t.hws),
		names: slices.Clone(t.names),
		slots: slices.Clone(t.slots),
		count: t.count,
	}
	ai = -1
	if app != nil {
		var ok bool
		if ai, ok = nt.apps[app.Name]; !ok {
			ai = len(nt.names)
			nt.apps[app.Name] = ai
			nt.names = append(nt.names, app.Name)
			for len(nt.slots) <= app.slot {
				nt.slots = append(nt.slots, 0)
			}
			if nt.slots[app.slot] == 0 {
				nt.slots[app.slot] = int32(ai) + 1
			}
		}
	}
	hi, ok := nt.hws[hw]
	if !ok {
		hi = len(nt.hws)
		nt.hws[hw] = hi
	}
	nt.vals = make([][][]cell, len(nt.names))
	for a := range nt.vals {
		nt.vals[a] = make([][]cell, len(nt.hws))
		if a < len(t.vals) {
			copy(nt.vals[a], t.vals[a])
		}
	}
	return nt, ai, hi
}

// extend returns a copy of t with (app, hw, nprocs) -> v added. Only the
// touched value row is cloned, so republishing after a miss is cheap
// relative to the model evaluation it accompanies. The new entry may
// complete a prefix of the row; its running minima are filled in from
// nprocs on, in the k-ascending, first-strict-minimum order of eq. 10's
// scan, so a memoised minimum is bit for bit the scan's.
func (t *predTable) extend(app *AppModel, hw string, nprocs int, v float64) *predTable {
	nt, ai, hi := t.grow(app, hw)
	row := nt.vals[ai][hi]
	if nprocs-1 >= len(row) {
		grown := make([]cell, nprocs)
		for i := range grown {
			grown[i] = cell{v: math.NaN(), min: math.NaN()}
		}
		copy(grown, row)
		row = grown
	} else {
		row = slices.Clone(row)
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
	nt.vals[ai][hi] = row
	nt.count++
	return nt
}

// Engine is the PACE evaluation engine: it combines an application model
// with a hardware (resource) model at run time to produce performance data
// (Fig. 1). A demand-driven cache of past evaluations sits between the
// scheduler and the engine (§2.2); the cache can be disabled for the
// ablation study.
//
// Engine is safe for concurrent use. Cache hits take no lock: they read an
// immutable prediction table through an atomic pointer and bump striped
// atomic counters, so parallel GA cost workers never contend once the
// table is warm. Only the miss path — one model evaluation per unique
// (app, hardware, nprocs) key over the engine's lifetime — serialises on
// the mutex, which also keeps Stats exact: each unique key misses and is
// evaluated exactly once regardless of how many workers race to it.
type Engine struct {
	table atomic.Pointer[predTable]

	hits   [hitShards]paddedCounter
	misses atomic.Uint64
	evals  atomic.Uint64

	mu           sync.Mutex // guards table republication (miss path)
	cacheEnabled bool
}

// NewEngine returns an engine with the evaluation cache enabled.
func NewEngine() *Engine {
	e := &Engine{cacheEnabled: true}
	e.table.Store(&predTable{apps: map[string]int{}, hws: map[string]int{}})
	return e
}

// NewEngineWithoutCache returns an engine that re-evaluates every request,
// used by the cache ablation bench.
func NewEngineWithoutCache() *Engine {
	e := &Engine{}
	e.table.Store(&predTable{apps: map[string]int{}, hws: map[string]int{}})
	return e
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
	col, ok := e.table.Load().hws[hw.Name]
	if !ok {
		col = -1 // no prediction on hw yet: straight to the miss path
	}
	return e.predict(app, hw, col, nprocs)
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
// counts them, entries fill on demand through the same miss path, and on
// an engine without a cache every call evaluates. Safe for concurrent use.
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
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table.Load()
	col, ok := t.hws[hw.Name]
	if !ok {
		t, _, col = t.grow(nil, hw.Name)
		e.table.Store(t)
	}
	return &Column{e: e, hw: hw, col: col}, nil
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
		if m, ok := c.e.table.Load().at(app, c.col, n); ok && !math.IsNaN(m.min) {
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

// predict serves a prediction from column col of the table (negative: hw
// has none yet), or evaluates the model.
func (e *Engine) predict(app *AppModel, hw Hardware, col, nprocs int) (float64, error) {
	if app == nil {
		return 0, fmt.Errorf("pace: nil application model")
	}
	if nprocs < 1 {
		return 0, fmt.Errorf("pace: prediction requires at least one processor, got %d", nprocs)
	}
	if e.cacheEnabled && col >= 0 {
		if c, ok := e.table.Load().at(app, col, nprocs); ok && !math.IsNaN(c.v) {
			e.hits[nprocs%hitShards].v.Add(1)
			return c.v, nil
		}
	}
	return e.miss(app, hw, nprocs)
}

// miss is the slow path: it re-checks the table under the mutex (another
// worker may have just published the key), evaluates the model while
// holding the lock so each unique key is evaluated exactly once, and
// republishes an extended immutable table.
func (e *Engine) miss(app *AppModel, hw Hardware, nprocs int) (float64, error) {
	eval := func() (float64, error) {
		ref, err := app.Eval(map[string]float64{"n": float64(nprocs)})
		if err != nil {
			return 0, err
		}
		return ref * hw.Factor, nil
	}
	if !e.cacheEnabled {
		// Uncached engines count evaluations only, as before.
		v, err := eval()
		if err != nil {
			return 0, err
		}
		e.evals.Add(1)
		return v, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table.Load()
	if col, ok := t.hws[hw.Name]; ok {
		if c, ok := t.at(app, col, nprocs); ok && !math.IsNaN(c.v) {
			e.hits[nprocs%hitShards].v.Add(1)
			return c.v, nil
		}
	}
	e.misses.Add(1)
	v, err := eval()
	if err != nil {
		return 0, err
	}
	e.evals.Add(1)
	e.table.Store(t.extend(app, hw.Name, nprocs, v))
	return v, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EvalStats {
	var hits uint64
	for i := range e.hits {
		hits += e.hits[i].v.Load()
	}
	return EvalStats{
		Evaluations: e.evals.Load(),
		CacheHits:   hits,
		CacheMisses: e.misses.Load(),
	}
}

// ResetStats zeroes the counters without touching the cache.
func (e *Engine) ResetStats() {
	for i := range e.hits {
		e.hits[i].v.Store(0)
	}
	e.misses.Store(0)
	e.evals.Store(0)
}

// CacheEnabled reports whether the demand-driven cache is active.
func (e *Engine) CacheEnabled() bool { return e.cacheEnabled }

// CacheLen returns the number of memoised evaluations.
func (e *Engine) CacheLen() int { return e.table.Load().count }
