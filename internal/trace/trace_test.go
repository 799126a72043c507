package trace

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
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
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d on a complete trace", r.Dropped())
	}
	if len(rows) != 2 || rows[1][2] != "arrive" {
		t.Fatalf("CSV has a trailer on a complete trace: %v", rows)
	}
}
