package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval of the harness: a call into a layer of the
// program, the interval that caused it (Parent, 0 for a root), and the
// request it served (Req, 0 when it served none). Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced run passes nil, so the end-to-end metrics are
// measured with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, total duration and total self time
// in nanoseconds. A span's self time is its duration minus the part of
// its interval that its child spans cover; children that overlap each
// other (two clients calling at once) are counted once.
func selfTimes(spans []span) (total, self map[string]int64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s.Start, s.End, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the kids' intervals, clipped to
// [start, end].
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}
