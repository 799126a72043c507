package trace

import (
	"encoding/csv"
	"io"
	"strconv"
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
	heap   csvHeap
	mark   float64
	marked bool
	err    error
	peak   int
}

// NewCSVSink writes the CSV header and returns the sink. Attach it with
// Recorder.AddSink; call Close once the run has drained.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{w: csv.NewWriter(w)}
	s.err = s.w.Write([]string{"seq", "time", "kind", "request", "agent", "resource", "task", "app", "detail"})
	return s
}

// Record buffers one event. Events stamped before the current watermark
// (completions recorded early, then overtaken by a clock advance) never
// happen: Advance's contract is that all later records have Time >= mark.
func (s *CSVSink) Record(ev Event) {
	s.heap.push(ev)
	if len(s.heap) > s.peak {
		s.peak = len(s.heap)
	}
}

// Advance flushes every buffered event with Time < now: the caller
// promises all future Record calls carry Time >= now.
func (s *CSVSink) Advance(now float64) {
	if s.marked && now <= s.mark {
		return
	}
	s.mark, s.marked = now, true
	for len(s.heap) > 0 && s.heap[0].Time < now {
		s.writeRow(s.heap.pop())
	}
}

// Close drains the reorder buffer and flushes. When the recorder's ring
// evicted events (dropped > 0), a final trailer row ("dropped", <count>)
// makes the loss visible in the file itself — a trace missing its oldest
// events must not pass for a complete one. It returns the first error
// encountered over the sink's lifetime.
func (s *CSVSink) Close(dropped uint64) error {
	for len(s.heap) > 0 {
		s.writeRow(s.heap.pop())
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

// csvHeap is a min-heap of events on (Time, Seq): rows read
// chronologically, with record order breaking ties.
type csvHeap []Event

func (h csvHeap) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}

func (h *csvHeap) push(ev Event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *csvHeap) pop() Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = Event{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}
