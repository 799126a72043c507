//go:build !race

package audit

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// TestObserverLifecycleAllocs: once warmed, the observer audits a whole
// request lifecycle — arrive, dispatch-log entry, dispatch, record,
// start, complete, Advance — without allocating. (Not under -race, whose
// runtime allocates on its own.)
func TestObserverLifecycleAllocs(t *testing.T) {
	o := NewObserver(map[string]int{"S1": 16, "S2": 8})
	var id uint64
	var now float64
	lifecycle := func() {
		id++
		now += 2
		task := int(id)
		o.Observe(trace.Event{Time: now, Kind: trace.KindArrive, ReqID: id, Agent: "S1", App: "fft"})
		o.ObserveDispatch(agent.Dispatch{Resource: "S2", TaskID: task, ReqID: id, Hops: 1})
		o.Observe(trace.Event{Time: now, Kind: trace.KindDispatch, ReqID: id, Agent: "S1", Resource: "S2", TaskID: task, App: "fft"})
		rec := scheduler.Record{TaskID: task, ReqID: id, Arrival: now, Deadline: now + 10, Mask: 0b1011, Start: now, End: now + 1.5, Resource: "S2"}
		o.ObserveRecord(rec)
		o.Observe(trace.Event{Time: rec.Start, Kind: trace.KindStart, ReqID: id, Resource: "S2", TaskID: task, App: "fft"})
		o.Observe(trace.Event{Time: rec.End, Kind: trace.KindComplete, ReqID: id, Resource: "S2", TaskID: task, App: "fft"})
		o.Advance(now + 1)
	}
	for range 4096 {
		lifecycle()
	}
	if allocs := testing.AllocsPerRun(2000, lifecycle); allocs != 0 {
		t.Fatalf("a request lifecycle allocates %v objects in steady state, want 0", allocs)
	}
	if o.InFlight() != 0 || len(o.stream) != 0 {
		t.Fatalf("the lifecycle is not clean: %d in flight, violations %v", o.InFlight(), o.stream)
	}
}
