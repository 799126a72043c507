package sim

import (
	"slices"
	"testing"
)

// TestHeapPopsInOrder pushes keys with many ties under a total order
// (key, then insertion index), interleaving pops, and checks every pop
// returns the least element left.
func TestHeapPopsInOrder(t *testing.T) {
	type item struct{ key, idx int }
	less := func(a, b *item) bool { return a.key < b.key || a.key == b.key && a.idx < b.idx }
	r := NewRNG(7)
	h := NewHeap(less)
	var left []item
	least := func() int {
		i := 0
		for j := range left {
			if less(&left[j], &left[i]) {
				i = j
			}
		}
		return i
	}
	popCheck := func() {
		i := least()
		if *h.Min() != left[i] {
			t.Fatalf("Min %+v, least left is %+v", *h.Min(), left[i])
		}
		if got := h.Pop(); got != left[i] {
			t.Fatalf("popped %+v, least left is %+v", got, left[i])
		}
		left = slices.Delete(left, i, i+1)
	}
	for n := 0; n < 2000; n++ {
		it := item{key: r.Intn(50), idx: n}
		h.Push(it)
		left = append(left, it)
		if r.Intn(3) == 0 {
			popCheck()
		}
		if h.Len() != len(left) {
			t.Fatalf("len %d, want %d", h.Len(), len(left))
		}
	}
	for h.Len() > 0 {
		popCheck()
	}
}
