//go:build !race

package reserve

import (
	"testing"
)

// TestFindWindowAllocs: once its scratch has grown, a book quotes
// without allocating. (Not under -race, whose runtime allocates on its
// own.)
func TestFindWindowAllocs(t *testing.T) {
	bk := NewBook(8)
	for i := uint64(0); i < 12; i++ {
		start := float64(40 * i)
		if err := bk.Hold(i+1, "u@g", 0b11<<(i%4*2), start, start+70, 0, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if err := bk.Release(3, 0); err != nil {
		t.Fatal(err)
	}
	avail := []float64{0, 5, 10, 200, 15, 1e6, 30, 0}
	quote := func() {
		if _, _, ok := bk.FindWindow(3, 20, 60, avail, 1); !ok {
			t.Fatal("no window")
		}
	}
	quote()
	if got := testing.AllocsPerRun(100, quote); got != 0 {
		t.Fatalf("FindWindow: %v allocations per quote, want 0", got)
	}
}
