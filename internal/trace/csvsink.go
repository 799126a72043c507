package trace

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/sim"
)

// CSVSink streams events to CSV in virtual-time order without retaining
// the run's history. Record order is not time order — completions are
// recorded at promotion carrying future end times — so the sink holds a
// small reorder buffer (a min-heap on (Time, Seq)) and flushes rows only
// once the grid's Advance watermark proves nothing earlier can still
// arrive. Memory is bounded by the in-flight window instead of the run
// length: a 1M-request trace streams to disk as it happens.
//
// The request column is the grid-wide request ID (empty for non-task
// events such as peerdown); task is the scheduler-local ID on the
// resource.
type CSVSink struct {
	w      *csv.Writer
	heap   sim.Heap[Event]
	mark   float64
	marked bool
	err    error
	peak   int
}

// NewCSVSink writes the CSV header and returns the sink. Attach it with
// Recorder.AddSink; call Close once the run has drained.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{w: csv.NewWriter(w), heap: sim.NewHeap(eventLess)}
	s.err = s.w.Write([]string{"seq", "time", "kind", "request", "agent", "resource", "task", "app", "detail"})
	return s
}

// Record buffers one event. Events stamped before the current watermark
// (completions recorded early, then overtaken by a clock advance) never
// happen: Advance's contract is that all later records have Time >= mark.
func (s *CSVSink) Record(ev Event) {
	s.heap.Push(ev)
	if s.heap.Len() > s.peak {
		s.peak = s.heap.Len()
	}
}

// Advance flushes every buffered event with Time < now: the caller
// promises all future Record calls carry Time >= now.
func (s *CSVSink) Advance(now float64) {
	if s.marked && now <= s.mark {
		return
	}
	s.mark, s.marked = now, true
	for s.heap.Len() > 0 && s.heap.Min().Time < now {
		s.writeRow(s.heap.Pop())
	}
}

// Close drains the reorder buffer and flushes. When the recorder's ring
// evicted events (dropped > 0), a final trailer row ("dropped", <count>)
// makes the loss visible in the file itself — a trace missing its oldest
// events must not pass for a complete one. It returns the first error
// encountered over the sink's lifetime.
func (s *CSVSink) Close(dropped uint64) error {
	for s.heap.Len() > 0 {
		s.writeRow(s.heap.Pop())
	}
	if dropped > 0 {
		trailer := []string{"dropped", strconv.FormatUint(dropped, 10), "", "", "", "", "", "", ""}
		if s.err == nil {
			s.err = s.w.Write(trailer)
		}
	}
	s.w.Flush()
	if s.err == nil {
		s.err = s.w.Error()
	}
	return s.err
}

// PeakBuffered reports the largest reorder buffer seen — evidence that
// streaming kept memory at the in-flight window, not the run length.
func (s *CSVSink) PeakBuffered() int { return s.peak }

func (s *CSVSink) writeRow(ev Event) {
	if s.err != nil {
		return
	}
	req := ""
	if ev.Kind.TaskBearing() {
		req = strconv.FormatUint(ev.ReqID, 10)
	}
	s.err = s.w.Write([]string{
		strconv.FormatUint(ev.Seq, 10),
		strconv.FormatFloat(ev.Time, 'f', 3, 64),
		ev.Kind.String(),
		req,
		ev.Agent,
		ev.Resource,
		strconv.Itoa(ev.TaskID),
		ev.App,
		ev.Detail,
	})
}

// eventLess orders the reorder buffer by (Time, Seq): rows read
// chronologically, with record order breaking ties.
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}
