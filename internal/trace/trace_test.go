package trace

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10)
	r.Record(Event{Time: 1, Kind: KindArrive, Agent: "S1", App: "fft"})
	r.Record(Event{Time: 1, Kind: KindDispatch, Agent: "S1", Resource: "S2", TaskID: 7, App: "fft"})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("sequence numbers: %v %v", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Kind != KindArrive || evs[1].Resource != "S2" {
		t.Fatalf("events: %+v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatal("phantom drops")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Time: float64(i), Kind: KindStart, TaskID: i})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.TaskID != 7+i {
			t.Fatalf("ring kept wrong events: %+v", evs)
		}
	}
	// Order within the ring must stay chronological.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("out-of-order events: %+v", evs)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if r.cap != DefaultCapacity {
		t.Fatalf("cap = %d", r.cap)
	}
}

func TestTaskHistory(t *testing.T) {
	// Two resources each run their own local task 1; only the grid-wide
	// request ID tells the lifecycles apart. The old (resource, taskID)
	// key could not follow a request across resources — its "" wildcard
	// matched same-numbered tasks from other resources.
	r := NewRecorder(100)
	r.Record(Event{Time: 0, Kind: KindArrive, ReqID: 1, App: "cpi"})
	r.Record(Event{Time: 0, Kind: KindDispatch, ReqID: 1, Resource: "S3", TaskID: 1})
	r.Record(Event{Time: 0, Kind: KindArrive, ReqID: 2, App: "fft"})
	r.Record(Event{Time: 0, Kind: KindDispatch, ReqID: 2, Resource: "S4", TaskID: 1})
	r.Record(Event{Time: 1, Kind: KindStart, ReqID: 1, Resource: "S3", TaskID: 1})
	r.Record(Event{Time: 1, Kind: KindStart, ReqID: 2, Resource: "S4", TaskID: 1})
	r.Record(Event{Time: 2, Kind: KindPeerDown, Agent: "S4"}) // not task-bearing: never in a history
	r.Record(Event{Time: 5, Kind: KindComplete, ReqID: 1, Resource: "S3", TaskID: 1})
	r.Record(Event{Time: 6, Kind: KindComplete, ReqID: 2, Resource: "S4", TaskID: 1})

	hist := r.TaskHistory(1)
	if len(hist) != 4 {
		t.Fatalf("history = %+v", hist)
	}
	if hist[0].Kind != KindArrive || hist[3].Kind != KindComplete {
		t.Fatalf("history order: %+v", hist)
	}
	for _, ev := range hist {
		if ev.ReqID != 1 {
			t.Fatalf("foreign event leaked into history: %+v", ev)
		}
		if ev.Kind != KindArrive && ev.Resource != "S3" {
			t.Fatalf("request 1 never visited %q: %+v", ev.Resource, ev)
		}
	}
	if other := r.TaskHistory(2); len(other) != 4 {
		t.Fatalf("request 2 history = %+v", other)
	}
	if ghost := r.TaskHistory(99); len(ghost) != 0 {
		t.Fatalf("unknown request has history: %+v", ghost)
	}
}

func TestCountByKindAndSummary(t *testing.T) {
	r := NewRecorder(100)
	r.Record(Event{Kind: KindArrive})
	r.Record(Event{Kind: KindArrive})
	r.Record(Event{Kind: KindFail})
	counts := r.CountByKind()
	if counts[KindArrive] != 2 || counts[KindFail] != 1 {
		t.Fatalf("counts: %v", counts)
	}
	s := r.Summary()
	if !strings.Contains(s, "3 events") || !strings.Contains(s, "arrive=2") {
		t.Fatalf("summary: %q", s)
	}
}

// sinkCSV records evs through a recorder of the given ring capacity with
// a CSVSink attached, closes the sink with the recorder's drop count, and
// returns the recorder and the parsed rows.
func sinkCSV(t *testing.T, capacity int, evs ...Event) (*Recorder, [][]string) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	r := NewRecorder(capacity)
	r.AddSink(sink)
	for _, ev := range evs {
		r.Record(ev)
	}
	if err := sink.Close(r.Dropped()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return r, rows
}

func TestCSVSinkFormat(t *testing.T) {
	// Completions are recorded at promote time with their future
	// completion instant, so record order is not virtual-time order;
	// the export must sort, with record order (seq) breaking ties. The
	// arrive row has TaskID 0 (no scheduler-local ID exists yet) and must
	// still carry its request ID; a non-task event carries none.
	_, rows := sinkCSV(t, 100,
		Event{Time: 1.5, Kind: KindDispatch, ReqID: 9, Agent: "S1", Resource: "S2", TaskID: 3, App: "fft", Detail: "hops=1"},
		Event{Time: 8, Kind: KindComplete, ReqID: 9, Resource: "S2", TaskID: 3, App: "fft"},
		Event{Time: 2, Kind: KindStart, ReqID: 9, Resource: "S2", TaskID: 3, App: "fft"},
		Event{Time: 2, Kind: KindPeerDown, Agent: "S4"},
		Event{Time: 1, Kind: KindArrive, ReqID: 9, Agent: "S1", App: "fft"},
	)
	want := [][]string{
		{"seq", "time", "kind", "request", "agent", "resource", "task", "app", "detail"},
		{"5", "1.000", "arrive", "9", "S1", "", "0", "fft", ""},
		{"1", "1.500", "dispatch", "9", "S1", "S2", "3", "fft", "hops=1"},
		{"3", "2.000", "start", "9", "", "S2", "3", "fft", ""},
		{"4", "2.000", "peerdown", "", "S4", "", "0", "", ""},
		{"2", "8.000", "complete", "9", "", "S2", "3", "fft", ""},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("csv rows:\n got %v\nwant %v", rows, want)
	}
}

// TestCSVSinkFlushesAtWatermark checks the streaming half of the
// contract: Advance writes exactly the rows before the watermark, and
// the rows that arrive later still come out in (time, seq) order.
func TestCSVSinkFlushesAtWatermark(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	r := NewRecorder(1)
	r.SetRetention(false)
	r.AddSink(sink)
	r.Record(Event{Time: 1, Kind: KindArrive, ReqID: 1})
	r.Record(Event{Time: 9, Kind: KindComplete, ReqID: 1})
	r.Advance(5)
	r.Record(Event{Time: 5, Kind: KindArrive, ReqID: 2})
	r.Record(Event{Time: 7, Kind: KindComplete, ReqID: 2})
	if sink.PeakBuffered() != 3 {
		t.Fatalf("peak reorder buffer = %d, want 3 (the arrive at t=1 flushed at the watermark)", sink.PeakBuffered())
	}
	if err := sink.Close(r.Dropped()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range rows[1:] {
		got = append(got, row[1]+" "+row[2]+" "+row[3])
	}
	want := []string{"1.000 arrive 1", "5.000 arrive 2", "7.000 complete 2", "9.000 complete 1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed rows %v, want %v", got, want)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Time: float64(i), Kind: KindStart, TaskID: g*1000 + i})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 1000 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Dropped() != 3000 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
	// Sequence numbers must be unique.
	seen := map[uint64]bool{}
	for _, ev := range r.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Time: 2, Kind: KindComplete, ReqID: 9, Resource: "S9", TaskID: 4, App: "jacobi", Detail: "deadline_met=true"}
	s := ev.String()
	for _, want := range []string{"complete", "req=9", "app=jacobi", "task=4", "resource=S9", "(deadline_met=true)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if zero := (Event{}).String(); !strings.Contains(zero, "t=") {
		t.Fatalf("zero event String() = %q", zero)
	}
}

func TestDroppedSurfacedInSummaryAndCSV(t *testing.T) {
	// Capacity 2, three events: the ring evicts the oldest and counts it.
	r, rows := sinkCSV(t, 2,
		Event{Time: 1, Kind: KindArrive, ReqID: 1},
		Event{Time: 2, Kind: KindArrive, ReqID: 2},
		Event{Time: 3, Kind: KindArrive, ReqID: 3},
	)
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped())
	}
	if s := r.Summary(); !strings.Contains(s, "1 dropped") {
		t.Fatalf("summary hides the drop: %q", s)
	}
	// The sink saw all three events before the ring evicted one: header,
	// three rows, and the trailer that says the ring's view is short.
	if len(rows) != 5 {
		t.Fatalf("CSV has %d rows: %v", len(rows), rows)
	}
	if last := rows[4]; last[0] != "dropped" || last[1] != "1" {
		t.Fatalf("CSV missing dropped trailer, last row: %v", last)
	}
}

func TestNoDroppedTrailerWhenComplete(t *testing.T) {
	r, rows := sinkCSV(t, 10, Event{Time: 1, Kind: KindArrive, ReqID: 1})
	if s := r.Summary(); strings.Contains(s, "dropped") {
		t.Fatalf("summary reports drops on a complete trace: %q", s)
	}
	if len(rows) != 2 || rows[1][2] != "arrive" {
		t.Fatalf("CSV has a trailer on a complete trace: %v", rows)
	}
}
