package sim

// Heap is a binary min-heap over a flat slice of values, ordered by less.
// It is hand-rolled rather than container/heap so Push and Pop move
// values in place instead of boxing each element behind an interface — at
// 10⁷+ events the per-event allocation and the interface conversions
// dominate a dispatch loop. Equal elements pop in no fixed order, so a
// caller that needs a reproducible order gives a total one.
type Heap[T any] struct {
	items []T
	less  func(a, b *T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b *T) bool) Heap[T] { return Heap[T]{less: less} }

// Len reports the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Min returns the least element in place; the heap must not be empty.
func (h *Heap[T]) Min() *T { return &h.items[0] }

// Push adds v, sifting it up from the end.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	q := h.items
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// Pop removes and returns the least element; the heap must not be empty.
// The last element fills the root's place: it waits in its own slot,
// just past the shrunken heap, while the lesser child of each level moves
// up into the hole until it is no greater than that child.
func (h *Heap[T]) Pop() T {
	q := h.items
	top := q[0]
	n := len(q) - 1
	last := &q[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h.less(&q[c+1], &q[c]) {
			c++
		}
		if !h.less(&q[c], last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = *last
	var zero T
	*last = zero // release what the vacated slot references, for GC
	h.items = q[:n]
	return top
}
