package reserve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/schedule"
)

func TestHoldAdmission(t *testing.T) {
	bk := NewBook(4)
	if err := bk.Hold(1, "u@g", 0b0011, 100, 200, 0, 30); err != nil {
		t.Fatalf("first hold: %v", err)
	}
	// Overlapping window on a shared node is rejected.
	if err := bk.Hold(2, "u@g", 0b0010, 150, 250, 0, 30); err == nil {
		t.Fatalf("overlapping hold admitted")
	}
	// Same window on disjoint nodes is fine.
	if err := bk.Hold(3, "u@g", 0b1100, 150, 250, 0, 30); err != nil {
		t.Fatalf("disjoint hold: %v", err)
	}
	// Touching windows (end == start) do not conflict.
	if err := bk.Hold(4, "u@g", 0b0011, 200, 300, 0, 30); err != nil {
		t.Fatalf("touching hold: %v", err)
	}
	// Zero-width windows conflict with nothing.
	if err := bk.Hold(5, "u@g", 0b0011, 150, 150, 0, 30); err != nil {
		t.Fatalf("zero-width hold: %v", err)
	}
	for _, bad := range []struct {
		name string
		err  error
	}{
		{"duplicate id", bk.Hold(1, "u@g", 1, 400, 410, 0, 30)},
		{"empty mask", bk.Hold(10, "u@g", 0, 400, 410, 0, 30)},
		{"node out of range", bk.Hold(11, "u@g", 1<<4, 400, 410, 0, 30)},
		{"backwards window", bk.Hold(12, "u@g", 1, 410, 400, 0, 30)},
		{"past start", bk.Hold(13, "u@g", 1, 5, 10, 20, 30)},
		{"no ttl", bk.Hold(14, "u@g", 1, 400, 410, 0, 0)},
	} {
		if bad.err == nil {
			t.Errorf("%s admitted", bad.name)
		}
	}
}

func TestTwoPhaseLifecycle(t *testing.T) {
	bk := NewBook(2)
	if err := bk.Hold(1, "u@g", 0b01, 50, 60, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := bk.Confirm(1, 5); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	if err := bk.Confirm(1, 6); err == nil {
		t.Fatal("double confirm succeeded")
	}
	if err := bk.Release(1, 7); err != nil {
		t.Fatalf("release of confirmed: %v", err)
	}
	if b, _ := bk.Get(1); b.State != Released || b.Active(8) {
		t.Fatalf("booking = %+v, want released and inactive", b)
	}
	// A released window admits a replacement.
	if err := bk.Hold(2, "v@g", 0b01, 50, 60, 8, 10); err != nil {
		t.Fatalf("rebook after release: %v", err)
	}
}

func TestHoldExpiry(t *testing.T) {
	bk := NewBook(2)
	if err := bk.Hold(1, "u@g", 0b01, 50, 60, 0, 10); err != nil {
		t.Fatal(err)
	}
	// Past the TTL the hold stops blocking even before a sweep runs.
	if err := bk.Hold(2, "v@g", 0b01, 50, 60, 10, 10); err != nil {
		t.Fatalf("hold against expired hold: %v", err)
	}
	if err := bk.Confirm(1, 10); err == nil {
		t.Fatal("confirm after expiry succeeded")
	}
	due := bk.ExpireDue(10)
	if len(due) != 0 {
		t.Fatalf("ExpireDue returned %d bookings after the failed confirm already expired it", len(due))
	}
	if b, _ := bk.Get(1); b.State != Expired {
		t.Fatalf("state = %s, want expired", b.State)
	}
}

func TestExpireDueOrder(t *testing.T) {
	bk := NewBook(4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(bk.Hold(3, "u@g", 0b0001, 100, 110, 0, 20))
	must(bk.Hold(1, "u@g", 0b0010, 100, 110, 0, 10))
	must(bk.Hold(2, "u@g", 0b0100, 100, 110, 0, 10))
	due := bk.ExpireDue(25)
	var ids []uint64
	for _, b := range due {
		ids = append(ids, b.ID)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 2, 3}) {
		t.Fatalf("expiry order = %v, want [1 2 3] (by expiry then id)", ids)
	}
}

func TestWindowsAndHorizon(t *testing.T) {
	bk := NewBook(3)
	if bk.Windows(0) != nil {
		t.Fatal("empty book returned non-nil windows")
	}
	if bk.Horizon(7) != 7 {
		t.Fatalf("empty horizon = %g, want now", bk.Horizon(7))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(bk.Hold(1, "u@g", 0b011, 100, 120, 0, 1000))
	must(bk.Hold(2, "u@g", 0b010, 20, 30, 0, 1000))
	must(bk.Confirm(1, 0))
	must(bk.Confirm(2, 0))
	got := bk.Windows(0)
	want := [][]schedule.Window{
		{{Start: 100, End: 120}},
		{{Start: 20, End: 30}, {Start: 100, End: 120}},
		nil,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows(0) = %v, want %v", got, want)
	}
	// A window wholly in the past is pruned.
	got = bk.Windows(50)
	if len(got[1]) != 1 || got[1][0].Start != 100 {
		t.Fatalf("Windows(50) node 1 = %v, want only the future window", got[1])
	}
	if h := bk.Horizon(0); h != 120 {
		t.Fatalf("horizon = %g, want 120", h)
	}
}

func TestFindWindow(t *testing.T) {
	bk := NewBook(4)
	avail := []float64{0, 5, 0, 0}
	// Unconstrained: lowest-indexed free nodes at the requested start.
	mask, start, ok := bk.FindWindow(2, 10, 20, avail, 0)
	if !ok || mask != 0b0011 || start != 10 {
		t.Fatalf("quote = mask %b start %g ok %v, want 0011 at 10", mask, start, ok)
	}
	// A floor above the requested start pushes the quote.
	mask, start, ok = bk.FindWindow(4, 0, 20, avail, 0)
	if !ok || mask != 0b1111 || start != 5 {
		t.Fatalf("quote = mask %b start %g ok %v, want 1111 at 5", mask, start, ok)
	}
	// Book nodes 0 and 2 over [10, 40): a 2-node quote at 10 must use
	// the other pair; a 3-node quote must wait for the window's end.
	if err := bk.Hold(1, "u@g", 0b0101, 10, 40, 0, 1000); err != nil {
		t.Fatal(err)
	}
	mask, start, ok = bk.FindWindow(2, 10, 20, avail, 0)
	if !ok || mask != 0b1010 || start != 10 {
		t.Fatalf("quote = mask %b start %g ok %v, want 1010 at 10", mask, start, ok)
	}
	mask, start, ok = bk.FindWindow(3, 10, 20, avail, 0)
	if !ok || start != 40 || mask != 0b0111 {
		t.Fatalf("quote = mask %b start %g ok %v, want 0111 at 40", mask, start, ok)
	}
	// A short reservation slips in front of the window on the nodes that
	// are free right away.
	mask, start, ok = bk.FindWindow(3, 0, 5, avail, 0)
	if !ok || start != 0 || mask != 0b1101 {
		t.Fatalf("gap quote = mask %b start %g ok %v, want 1101 at 0", mask, start, ok)
	}
	// Down nodes (infinite floor) never qualify.
	down := []float64{0, math.Inf(1), math.Inf(1), math.Inf(1)}
	if _, _, ok := bk.FindWindow(2, 0, 5, down, 0); ok {
		t.Fatal("quote used down nodes")
	}
	if _, _, ok := bk.FindWindow(1, 0, 5, down, 0); !ok {
		t.Fatal("single up node not quoted")
	}
}
