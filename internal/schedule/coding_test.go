package schedule

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRandomSolutionIsLegitimate(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		nTasks := rng.IntIn(0, 20)
		nNodes := rng.IntIn(1, 16)
		s := NewRandomSolution(nTasks, nNodes, rng)
		if err := s.Validate(nTasks, nNodes); err != nil {
			t.Fatalf("trial %d (%d tasks, %d nodes): %v", trial, nTasks, nNodes, err)
		}
	}
}

func TestRandomSolution64Nodes(t *testing.T) {
	rng := sim.NewRNG(2)
	s := NewRandomSolution(5, 64, rng)
	if err := s.Validate(5, 64); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSolutions(t *testing.T) {
	cases := []struct {
		name    string
		s       Solution
		wantSub string
	}{
		{"short order", Solution{Order: []int{0}, Maps: []uint64{1, 1}}, "sized"},
		{"oob position", Solution{Order: []int{0, 5}, Maps: []uint64{1, 1}}, "out of range"},
		{"negative position", Solution{Order: []int{0, -1}, Maps: []uint64{1, 1}}, "out of range"},
		{"duplicate position", Solution{Order: []int{1, 1}, Maps: []uint64{1, 1}}, "repeats"},
		{"empty map", Solution{Order: []int{0, 1}, Maps: []uint64{1, 0}}, "no nodes"},
		{"map outside pool", Solution{Order: []int{0, 1}, Maps: []uint64{1, 1 << 10}}, "outside"},
	}
	for _, c := range cases {
		if err := c.s.Validate(2, 4); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := sim.NewRNG(3)
	a := NewRandomSolution(6, 8, rng)
	b := a.Clone()
	b.Order[0], b.Order[1] = b.Order[1], b.Order[0]
	b.Maps[0] = 0xFF
	if a.Maps[0] == 0xFF && a.Order[0] == b.Order[0] {
		t.Fatal("clone shares storage with original")
	}
}

// Property: crossover of legitimate parents yields legitimate children and
// leaves the parents untouched. The children are written over the
// previous trial's, of another size, so a stale tail would show.
func TestCrossoverPreservesLegitimacy(t *testing.T) {
	rng := sim.NewRNG(4)
	var c, d Solution
	prop := func(nTasksRaw, nNodesRaw uint8) bool {
		nTasks := int(nTasksRaw)%15 + 1
		nNodes := int(nNodesRaw)%16 + 1
		a := NewRandomSolution(nTasks, nNodes, rng)
		b := NewRandomSolution(nTasks, nNodes, rng)
		aSnap, bSnap := a.Clone(), b.Clone()
		Crossover(&c, &d, a, b, nNodes, rng)
		if c.Validate(nTasks, nNodes) != nil || d.Validate(nTasks, nNodes) != nil {
			return false
		}
		return solutionsEqual(a, aSnap) && solutionsEqual(b, bSnap)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func solutionsEqual(a, b Solution) bool {
	if len(a.Order) != len(b.Order) || len(a.Maps) != len(b.Maps) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	for i := range a.Maps {
		if a.Maps[i] != b.Maps[i] {
			return false
		}
	}
	return true
}

// Property: mutation in place yields a legitimate solution that differs
// from its input in at most two order entries and one node map.
func TestMutatePreservesLegitimacy(t *testing.T) {
	rng := sim.NewRNG(5)
	prop := func(nTasksRaw, nNodesRaw uint8) bool {
		nTasks := int(nTasksRaw)%15 + 1
		nNodes := int(nNodesRaw)%16 + 1
		a := NewRandomSolution(nTasks, nNodes, rng)
		m := a.Clone()
		Mutate(&m, nNodes, rng)
		orderDiffs, mapDiffs := 0, 0
		for i := range a.Order {
			if a.Order[i] != m.Order[i] {
				orderDiffs++
			}
			if a.Maps[i] != m.Maps[i] {
				mapDiffs++
			}
		}
		return m.Validate(nTasks, nNodes) == nil && orderDiffs <= 2 && mapDiffs <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateNeverEmptiesSingleNodeMap(t *testing.T) {
	// On a single-node resource the only possible flip would empty the
	// map; the repair must keep it set.
	rng := sim.NewRNG(6)
	a := Solution{Order: []int{0}, Maps: []uint64{1}}
	for i := 0; i < 100; i++ {
		Mutate(&a, 1, rng)
		if a.Maps[0] != 1 {
			t.Fatalf("mutation produced map %b on a 1-node pool", a.Maps[0])
		}
	}
}

func TestCrossoverPreservesTaskMappingAssociation(t *testing.T) {
	// The defining property of the paper's operator: the node mapping
	// stays associated with its task across reordering. With identical
	// parents the children must equal the parents regardless of cut
	// points.
	rng := sim.NewRNG(7)
	var c, d Solution
	for trial := 0; trial < 100; trial++ {
		a := NewRandomSolution(8, 8, rng)
		Crossover(&c, &d, a, a, 8, rng)
		if !solutionsEqual(c, a) || !solutionsEqual(d, a) {
			t.Fatalf("crossover of identical parents changed the solution:\na=%v\nc=%v\nd=%v", a, c, d)
		}
	}
}

func TestCrossoverEmptySolutions(t *testing.T) {
	rng := sim.NewRNG(8)
	a := Solution{Order: []int{}, Maps: []uint64{}}
	c, d := NewRandomSolution(3, 4, rng), NewRandomSolution(3, 4, rng)
	Crossover(&c, &d, a, a, 4, rng)
	if len(c.Order) != 0 || len(d.Order) != 0 || len(c.Maps) != 0 || len(d.Maps) != 0 {
		t.Fatal("crossover of empty solutions produced tasks")
	}
}

func TestCrossoverMixedSizesPanics(t *testing.T) {
	rng := sim.NewRNG(9)
	a := NewRandomSolution(3, 4, rng)
	b := NewRandomSolution(4, 4, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched crossover did not panic")
		}
	}()
	var c, d Solution
	Crossover(&c, &d, a, b, 4, rng)
}

func TestSpliceOrderKeepsHeadAndRelativeTailOrder(t *testing.T) {
	head := []int{3, 1, 4, 0, 2}
	tail := []int{0, 1, 2, 3, 4}
	got := []int{9, 9, 9, 9, 9} // stale scratch
	spliceOrder(got, head, tail, 2)
	want := []int{3, 1, 0, 2, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("spliceOrder = %v, want %v", got, want)
	}

	// Past 256 positions the membership set no longer fits its stack
	// words; the result must not change.
	const n = 300
	head, tail = make([]int, n), make([]int, n)
	for i := range head {
		head[i], tail[i] = n-1-i, i
	}
	got = make([]int, n)
	spliceOrder(got, head, tail, 270)
	want = append(append([]int(nil), head[:270]...), tail[:30]...)
	if !slices.Equal(got, want) {
		t.Fatalf("spliceOrder over %d positions = %v, want %v", n, got, want)
	}
}

func TestNodeCount(t *testing.T) {
	s := Solution{Order: []int{0, 1}, Maps: []uint64{0b1011, 0b1}}
	if s.NodeCount(0) != 3 || s.NodeCount(1) != 1 {
		t.Fatalf("NodeCount = %d, %d", s.NodeCount(0), s.NodeCount(1))
	}
}

func TestSolutionStringShowsBothParts(t *testing.T) {
	s := Solution{Order: []int{1, 0}, Maps: []uint64{0b01, 0b10}}
	str := s.String()
	if !strings.Contains(str, "order: 1 0") || !strings.Contains(str, "maps:") {
		t.Fatalf("String() = %q", str)
	}
}

func TestFullMask(t *testing.T) {
	if fullMask(1) != 1 || fullMask(16) != 0xFFFF || fullMask(64) != ^uint64(0) {
		t.Fatalf("fullMask wrong: %b %b %b", fullMask(1), fullMask(16), fullMask(64))
	}
}
