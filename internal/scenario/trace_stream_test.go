package scenario

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestStreamedTraceMatchesBatchExport pins the streaming-sink contract
// on a real run: a retention-off recorder fanning out to a CSVSink must
// write exactly the events a retaining recorder holds at the end of the
// same run, sorted by (time, seq), while holding only the in-flight
// reorder window.
func TestStreamedTraceMatchesBatchExport(t *testing.T) {
	spec := smallSpec()

	// Batch path: retain everything, sort at the end.
	batch := trace.NewRecorder(8*spec.Arrivals.Count + 64)
	if _, err := Run(spec, RunOptions{Trace: batch}); err != nil {
		t.Fatal(err)
	}
	if batch.Dropped() != 0 {
		t.Fatalf("reference recorder dropped %d events", batch.Dropped())
	}
	evs := batch.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Seq < evs[j].Seq
	})
	want := make([]string, len(evs))
	for i, ev := range evs {
		want[i] = fmt.Sprintf("%d,%.3f,%s", ev.Seq, ev.Time, ev.Kind)
	}

	// Streaming path: retention off, rows flushed at the grid's
	// advance watermark, drained on Close.
	var got strings.Builder
	sink := trace.NewCSVSink(&got)
	stream := trace.NewRecorder(1)
	stream.SetRetention(false)
	stream.AddSink(sink)
	if _, err := Run(spec, RunOptions{Trace: stream}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(stream.Dropped()); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("streamed CSV has %d rows, the retained run %d events", len(lines)-1, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i+1], w+",") {
			t.Fatalf("streamed row %d = %q, retained run has %q there", i+1, lines[i+1], w)
		}
	}
	if sink.PeakBuffered() == 0 {
		t.Fatal("sink buffered nothing — trace never reached it")
	}
	// The reorder buffer must track the in-flight window, not the run:
	// retaining the whole trace would defeat the point of streaming.
	if events := 8 * spec.Arrivals.Count; sink.PeakBuffered() >= events/2 {
		t.Fatalf("peak reorder buffer %d events is not bounded by the in-flight window (run emits ~%d)", sink.PeakBuffered(), events)
	}
}
