package schedule

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Solution is the two-part coding scheme of Fig. 2. The ordering part is a
// permutation of task positions specifying execution order; the mapping
// part allocates a node set (bitmask) to each task. Maps is indexed by
// task position in the task slice (not by order rank), which keeps the
// node mapping associated with a particular task across reordering — the
// property the paper's crossover preserves by reordering the mapping part
// before recombining.
type Solution struct {
	Order []int
	Maps  []uint64
}

// NewRandomSolution draws a uniform solution: a random task permutation
// and an independent non-empty random node subset per task.
func NewRandomSolution(numTasks, numNodes int, rng *sim.RNG) Solution {
	s := Solution{Order: make([]int, numTasks), Maps: make([]uint64, numTasks)}
	s.randomize(numTasks, numNodes, rng)
	return s
}

// randomize makes s a uniform random solution in its own storage, with
// the draws of rng.Perm followed by one randomMask per task.
func (s *Solution) randomize(numTasks, numNodes int, rng *sim.RNG) {
	s.resize(numTasks)
	order := s.Order
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(numTasks, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i := range s.Maps {
		s.Maps[i] = randomMask(numNodes, rng)
	}
}

// resize gives s room for n tasks, reusing its storage and growing it as
// append does, so a queue that lengthens one task at a time does not
// reallocate every genome at every length; the contents are left for the
// caller to overwrite.
func (s *Solution) resize(n int) {
	s.Order = slices.Grow(s.Order[:0], n)[:n]
	s.Maps = slices.Grow(s.Maps[:0], n)[:n]
}

// randomMask returns a uniformly random non-empty subset of numNodes bits.
func randomMask(numNodes int, rng *sim.RNG) uint64 {
	full := fullMask(numNodes)
	for {
		var m uint64
		if numNodes == 64 {
			m = rng.Uint64()
		} else {
			m = rng.Uint64() & full
		}
		if m != 0 {
			return m
		}
	}
}

// fullMask returns the mask with the low numNodes bits set.
func fullMask(numNodes int) uint64 {
	if numNodes >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(numNodes)) - 1
}

// Clone returns an independent deep copy.
func (s Solution) Clone() Solution {
	out := Solution{
		Order: make([]int, len(s.Order)),
		Maps:  make([]uint64, len(s.Maps)),
	}
	copy(out.Order, s.Order)
	copy(out.Maps, s.Maps)
	return out
}

// Validate checks that s is a legitimate solution for numTasks tasks on
// numNodes nodes: the ordering is a permutation and every mapping is a
// non-empty subset of the node pool.
func (s Solution) Validate(numTasks, numNodes int) error {
	if len(s.Order) != numTasks || len(s.Maps) != numTasks {
		return fmt.Errorf("schedule: solution sized %d/%d for %d tasks", len(s.Order), len(s.Maps), numTasks)
	}
	var small [4]uint64
	seen := newPositionSet(small[:], numTasks)
	for _, p := range s.Order {
		if p < 0 || p >= numTasks {
			return fmt.Errorf("schedule: ordering entry %d out of range", p)
		}
		if seen.has(p) {
			return fmt.Errorf("schedule: ordering repeats task position %d", p)
		}
		seen.add(p)
	}
	full := fullMask(numNodes)
	for i, m := range s.Maps {
		if m == 0 {
			return fmt.Errorf("schedule: task position %d mapped to no nodes", i)
		}
		if m&^full != 0 {
			return fmt.Errorf("schedule: task position %d mapped outside the %d-node pool", i, numNodes)
		}
	}
	return nil
}

// positionSet is a bitset over task positions [0, n). Crossover and
// validation run hundreds of times per scheduling event, so the words
// come from small, an array in the caller's frame, unless n needs more.
type positionSet []uint64

func newPositionSet(small []uint64, n int) positionSet {
	words := (n + 63) / 64
	if words > len(small) {
		return make(positionSet, words)
	}
	clear(small[:words])
	return small[:words]
}

func (s positionSet) add(p int)      { s[p>>6] |= uint64(1) << uint(p&63) }
func (s positionSet) has(p int) bool { return s[p>>6]&(uint64(1)<<uint(p&63)) != 0 }

// Crossover implements the specialised two-part operator of §2.1, writing
// the two children to c1 and c2 in their own storage (neither may alias a
// parent). The ordering strings are spliced at a random location and the
// pairs reordered to produce legitimate permutations (one-point order
// crossover). The mapping parts are first reordered to be consistent with
// the new task order and then recombined with a single-point binary
// crossover over the concatenated bit string, so the cut may fall inside
// one task's node map.
func Crossover(c1, c2 *Solution, a, b Solution, numNodes int, rng *sim.RNG) {
	n := len(a.Order)
	if n != len(b.Order) {
		panic("schedule: crossover of differently sized solutions")
	}
	c1.resize(n)
	c2.resize(n)
	if n == 0 {
		return
	}
	cut := rng.Intn(n + 1)
	spliceOrder(c1.Order, a.Order, b.Order, cut)
	spliceOrder(c2.Order, b.Order, a.Order, cut)

	bitCut := rng.Intn(n*numNodes + 1)
	spliceMaps(c1.Maps, c1.Order, a.Maps, b.Maps, numNodes, bitCut)
	spliceMaps(c2.Maps, c2.Order, b.Maps, a.Maps, numNodes, bitCut)
}

// spliceOrder fills out with head[:cut] followed by the remaining task
// positions in tail's relative order, yielding a legitimate permutation.
func spliceOrder(out, head, tail []int, cut int) {
	var small [4]uint64
	used := newPositionSet(small[:], len(head))
	for _, p := range head[:cut] {
		used.add(p)
	}
	copy(out, head[:cut])
	k := cut
	for _, p := range tail {
		if !used.has(p) {
			out[k] = p
			k++
		}
	}
}

// spliceMaps fills out with the child's task-indexed mapping.
// Conceptually the two parents' mapping strings are reordered to match
// the child's task order and concatenated into bit strings; the child
// takes bits before bitCut from the first parent and bits after it from
// the second. The rank of a task in the child's order therefore decides
// which parent supplies its node map, with the boundary task receiving a
// hybrid mask (repaired to be non-empty).
func spliceMaps(out []uint64, order []int, first, second []uint64, numNodes int, bitCut int) {
	for rank, taskPos := range order {
		lo := rank * numNodes
		hi := lo + numNodes
		var m uint64
		switch {
		case hi <= bitCut:
			m = first[taskPos]
		case lo >= bitCut:
			m = second[taskPos]
		default:
			// The cut falls inside this task's map: low-order bits (< cut
			// offset) from the first parent, the rest from the second.
			k := uint(bitCut - lo)
			lowBits := (uint64(1) << k) - 1
			m = first[taskPos]&lowBits | second[taskPos]&^lowBits
		}
		if m == 0 {
			// Repair: an empty allocation is not a legitimate solution.
			m = first[taskPos] | second[taskPos]
			if m == 0 {
				m = 1
			}
		}
		out[taskPos] = m
	}
}

// Mutate implements the two-part mutation of §2.1 on s in place: a
// switching operator swaps two positions of the ordering part, and a
// random bit-flip is applied to the mapping part (repaired to keep
// allocations non-empty).
func Mutate(s *Solution, numNodes int, rng *sim.RNG) {
	n := len(s.Order)
	if n == 0 {
		return
	}
	// Switching operator on the ordering part.
	i, j := rng.Intn(n), rng.Intn(n)
	s.Order[i], s.Order[j] = s.Order[j], s.Order[i]

	// Random bit-flip on the mapping part.
	t := rng.Intn(n)
	bit := uint64(1) << uint(rng.Intn(numNodes))
	s.Maps[t] ^= bit
	if s.Maps[t] == 0 {
		s.Maps[t] = bit // flipping the last set bit would orphan the task
	}
}

// NodeCount returns the number of nodes allocated to the task at position
// taskPos.
func (s Solution) NodeCount(taskPos int) int {
	return bits.OnesCount64(s.Maps[taskPos])
}

// String renders the solution in the style of Fig. 2: the ordering part
// above the mapping part, with maps shown in task order.
func (s Solution) String() string {
	var b strings.Builder
	b.WriteString("order:")
	for _, p := range s.Order {
		fmt.Fprintf(&b, " %d", p)
	}
	b.WriteString("\nmaps: ")
	for i, p := range s.Order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%b", p, s.Maps[p])
	}
	return b.String()
}
