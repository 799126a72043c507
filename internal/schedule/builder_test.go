package schedule

import (
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pace"
	"repro/internal/sim"
)

// constPredictor ignores the model and charges dur seconds regardless of
// node count.
func constPredictor(dur float64) Predictor {
	return func(*pace.AppModel, int) float64 { return dur }
}

// scalePredictor models perfect speedup of work w: t = w / nprocs.
func scalePredictor(w float64) Predictor {
	return func(_ *pace.AppModel, n int) float64 { return w / float64(n) }
}

func makeTasks(n int, deadline float64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: i, Deadline: deadline}
	}
	return tasks
}

func TestBuildSequentialOnOneNode(t *testing.T) {
	tasks := makeTasks(3, 1e9)
	res := NewResource(1)
	sol := Solution{Order: []int{0, 1, 2}, Maps: []uint64{1, 1, 1}}
	s := Build(sol, tasks, res, 0, constPredictor(10))
	wantStarts := []float64{0, 10, 20}
	for i, it := range s.Items {
		if it.Start != wantStarts[i] || it.End != wantStarts[i]+10 {
			t.Fatalf("item %d = %+v, want start %v", i, it, wantStarts[i])
		}
	}
	if s.Makespan != 30 {
		t.Fatalf("makespan = %v, want 30", s.Makespan)
	}
}

func TestBuildParallelDisjointNodes(t *testing.T) {
	tasks := makeTasks(2, 1e9)
	res := NewResource(2)
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{0b01, 0b10}}
	s := Build(sol, tasks, res, 0, constPredictor(7))
	for _, it := range s.Items {
		if it.Start != 0 || it.End != 7 {
			t.Fatalf("disjoint tasks did not run in parallel: %+v", it)
		}
	}
	if s.Makespan != 7 {
		t.Fatalf("makespan = %v, want 7", s.Makespan)
	}
}

func TestBuildUnisonStart(t *testing.T) {
	// Node 1 is busy until t=5; a task mapped to nodes {0,1} must wait for
	// both ("the allocated nodes all begin to execute the task in unison").
	tasks := makeTasks(1, 1e9)
	res := Resource{NumNodes: 2, Avail: []float64{0, 5}}
	sol := Solution{Order: []int{0}, Maps: []uint64{0b11}}
	s := Build(sol, tasks, res, 0, constPredictor(3))
	if s.Items[0].Start != 5 || s.Items[0].End != 8 {
		t.Fatalf("unison start violated: %+v", s.Items[0])
	}
	if s.NodeBusy[0] != 8 || s.NodeBusy[1] != 8 {
		t.Fatalf("node busy times = %v, want both 8", s.NodeBusy)
	}
}

func TestBuildRespectsBaseAndArrival(t *testing.T) {
	tasks := []Task{{ID: 0, Arrival: 12, Deadline: 1e9}}
	res := NewResource(2)
	sol := Solution{Order: []int{0}, Maps: []uint64{0b1}}
	s := Build(sol, tasks, res, 10, constPredictor(1))
	if s.Items[0].Start != 12 {
		t.Fatalf("task started at %v before its arrival 12", s.Items[0].Start)
	}
	tasks[0].Arrival = 0
	s = Build(sol, tasks, res, 10, constPredictor(1))
	if s.Items[0].Start != 10 {
		t.Fatalf("task started at %v before the scheduling instant 10", s.Items[0].Start)
	}
}

func TestBuildLaterTaskMaySlotInEarlier(t *testing.T) {
	// Order is (long on node 0), (short on node 1): the second task does
	// not wait behind the first because their node sets are disjoint.
	tasks := makeTasks(2, 1e9)
	res := NewResource(2)
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{0b01, 0b10}}
	pred := func(_ *pace.AppModel, n int) float64 { return 100 }
	s := Build(sol, tasks, res, 0, pred)
	if s.Items[1].Start != 0 {
		t.Fatalf("second task queued unnecessarily: %+v", s.Items[1])
	}
}

func TestBuildPanicsOnInvalidInput(t *testing.T) {
	tasks := makeTasks(1, 1e9)
	cases := []struct {
		name string
		sol  Solution
		res  Resource
	}{
		{"empty map", Solution{Order: []int{0}, Maps: []uint64{0}}, NewResource(2)},
		{"bad resource", Solution{Order: []int{0}, Maps: []uint64{1}}, Resource{NumNodes: 2, Avail: []float64{0}}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build did not panic", c.name)
				}
			}()
			Build(c.sol, tasks, c.res, 0, constPredictor(1))
		}()
	}
}

func TestBuildMakespanIncludesPreexistingBusy(t *testing.T) {
	// A resource whose nodes are busy beyond all new work keeps that as
	// the makespan floor.
	tasks := makeTasks(1, 1e9)
	res := Resource{NumNodes: 2, Avail: []float64{0, 50}}
	sol := Solution{Order: []int{0}, Maps: []uint64{0b01}}
	s := Build(sol, tasks, res, 0, constPredictor(1))
	if s.Makespan != 50 {
		t.Fatalf("makespan = %v, want 50 (busy node dominates)", s.Makespan)
	}
}

func TestBuildNodeCountDrivesPrediction(t *testing.T) {
	tasks := makeTasks(1, 1e9)
	res := NewResource(4)
	for k := 1; k <= 4; k++ {
		mask := uint64(1)<<uint(k) - 1
		sol := Solution{Order: []int{0}, Maps: []uint64{mask}}
		s := Build(sol, tasks, res, 0, scalePredictor(100))
		want := 100 / float64(k)
		if s.Items[0].End != want {
			t.Fatalf("k=%d: end = %v, want %v", k, s.Items[0].End, want)
		}
	}
}

// Property: for any random legitimate solution, the built schedule is
// self-consistent — node busy times equal the max completion over that
// node's tasks, no two tasks overlap on one node, starts respect base, and
// the makespan is the max of completions and initial availability.
func TestBuildInvariants(t *testing.T) {
	rng := sim.NewRNG(42)
	prop := func(nTasksRaw, nNodesRaw uint8, baseRaw uint16) bool {
		nTasks := int(nTasksRaw)%10 + 1
		nNodes := int(nNodesRaw)%8 + 1
		base := float64(baseRaw % 100)
		tasks := makeTasks(nTasks, 1e9)
		res := NewResource(nNodes)
		for i := range res.Avail {
			res.Avail[i] = base + float64(rng.Intn(20))
		}
		sol := NewRandomSolution(nTasks, nNodes, rng)
		s := Build(sol, tasks, res, base, scalePredictor(30))

		// Per-node interval consistency.
		for node := 0; node < nNodes; node++ {
			type iv struct{ a, b float64 }
			var ivs []iv
			for _, it := range s.Items {
				if it.Mask&(1<<uint(node)) != 0 {
					ivs = append(ivs, iv{it.Start, it.End})
				}
			}
			last := res.Avail[node]
			cursor := res.Avail[node]
			for _, v := range ivs {
				if v.a < cursor-1e-9 { // overlap on a node
					return false
				}
				cursor = v.b
				if v.b > last {
					last = v.b
				}
			}
			if s.NodeBusy[node] != last {
				return false
			}
		}
		// Makespan and start floors.
		maxEnd := base
		for _, a := range res.Avail {
			if a > maxEnd {
				maxEnd = a
			}
		}
		for _, it := range s.Items {
			if it.Start < base {
				return false
			}
			if it.End < it.Start {
				return false
			}
			if it.End > maxEnd {
				maxEnd = it.End
			}
		}
		return s.Makespan == maxEnd
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacedNodes(t *testing.T) {
	p := Placed{Mask: 0b10110}
	nodes := p.Nodes()
	want := []int{1, 2, 4}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes() = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", nodes, want)
		}
	}
}

func TestItemFor(t *testing.T) {
	tasks := makeTasks(2, 1e9)
	res := NewResource(2)
	sol := Solution{Order: []int{1, 0}, Maps: []uint64{0b01, 0b10}}
	s := Build(sol, tasks, res, 0, constPredictor(1))
	it, ok := s.ItemFor(1)
	if !ok || it.TaskPos != 1 {
		t.Fatalf("ItemFor(1) = %+v, %v", it, ok)
	}
	if _, ok := s.ItemFor(99); ok {
		t.Fatal("ItemFor(99) found a phantom task")
	}
}

func TestResourceHelpers(t *testing.T) {
	r := Resource{NumNodes: 3, Avail: []float64{5, 2, 9}}
	if r.EarliestAvail() != 2 {
		t.Fatalf("EarliestAvail = %v", r.EarliestAvail())
	}
	if r.LatestAvail() != 9 {
		t.Fatalf("LatestAvail = %v", r.LatestAvail())
	}
	c := r.Clone()
	c.Avail[0] = 100
	if r.Avail[0] != 5 {
		t.Fatal("Clone shares storage")
	}
	empty := Resource{}
	if empty.EarliestAvail() != 0 || empty.LatestAvail() != 0 {
		t.Fatal("empty resource availability not zero")
	}
}

func TestNewResourcePanicsOnBadCount(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewResource(%d) did not panic", n)
				}
			}()
			NewResource(n)
		}()
	}
}

func TestTaskString(t *testing.T) {
	lib := pace.CaseStudyLibrary()
	m, _ := lib.Lookup("fft")
	s := Task{ID: 3, App: m, Deadline: 40}.String()
	if !strings.Contains(s, "#3") || !strings.Contains(s, "fft") {
		t.Fatalf("Task.String() = %q", s)
	}
	if !strings.Contains(Task{}.String(), "<nil>") {
		t.Fatal("nil-app task String lacks <nil>")
	}
}

func TestBuildMaskPopcountMatchesNodeCount(t *testing.T) {
	rng := sim.NewRNG(9)
	sol := NewRandomSolution(5, 10, rng)
	for i := range sol.Maps {
		if sol.NodeCount(i) != bits.OnesCount64(sol.Maps[i]) {
			t.Fatal("NodeCount disagrees with popcount")
		}
	}
}

// TestBuilderMatchesBuild asserts the zero-alloc builder produces exactly
// the schedule of the general entry point, across repeated reuse.
func TestBuilderMatchesBuild(t *testing.T) {
	rng := sim.NewRNG(3)
	tasks := make([]Task, 12)
	for i := range tasks {
		tasks[i] = Task{ID: i, Arrival: float64(i) * 0.5, Deadline: 100}
	}
	res := NewResource(8)
	pred := func(_ *pace.AppModel, k int) float64 { return 10 / float64(k) }
	b, err := NewBuilder(tasks, res, pred)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		sol := NewRandomSolution(len(tasks), 8, rng)
		want := Build(sol, tasks, res, 2, pred)
		got := b.Build(sol, 2)
		if got.Makespan != want.Makespan || got.Base != want.Base {
			t.Fatalf("round %d: makespan/base %g/%g, want %g/%g",
				round, got.Makespan, got.Base, want.Makespan, want.Base)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("round %d: %d items, want %d", round, len(got.Items), len(want.Items))
		}
		for i := range got.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("round %d item %d: %+v, want %+v", round, i, got.Items[i], want.Items[i])
			}
		}
		for i := range got.NodeBusy {
			if got.NodeBusy[i] != want.NodeBusy[i] {
				t.Fatalf("round %d node %d busy %g, want %g", round, i, got.NodeBusy[i], want.NodeBusy[i])
			}
		}
	}
}

// TestBuilderBuildAllocs pins the zero-alloc contract for the GA cost hot
// path.
func TestBuilderBuildAllocs(t *testing.T) {
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{ID: i, Deadline: 50}
	}
	res := NewResource(8)
	b, err := NewBuilder(tasks, res, constPredictor(3))
	if err != nil {
		t.Fatal(err)
	}
	sol := NewRandomSolution(len(tasks), 8, sim.NewRNG(1))
	b.Build(sol, 0) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		s := b.Build(sol, 0)
		if s.Makespan <= 0 {
			t.Fatal("empty schedule")
		}
	})
	if allocs != 0 {
		t.Fatalf("Builder.Build allocates %v objects per run, want 0", allocs)
	}
}

// TestCostDoesNotAllocate pins the allocation-free cost evaluation: a
// warmed Problem's Cost and Breakdown reuse its duration table and its
// free-listed builder.
func TestCostDoesNotAllocate(t *testing.T) {
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{ID: i, Deadline: 20}
	}
	p := NewProblem(tasks, NewResource(8), 0, constPredictor(3))
	sol := NewRandomSolution(len(tasks), 8, sim.NewRNG(2))
	p.Cost(sol) // fill the table, grow a builder
	allocs := testing.AllocsPerRun(100, func() {
		if p.Cost(sol) < 0 || p.Breakdown(sol).Combined < 0 {
			t.Fatal("negative cost")
		}
	})
	if allocs != 0 {
		t.Fatalf("Problem.Cost allocates %v objects per run, want 0", allocs)
	}
}

// TestProblemResetRepointsBuilders re-points one Problem across task sets
// of different sizes and resources: every cost must equal a fresh
// Problem's, so no pooled builder keeps an earlier instance.
func TestProblemResetRepointsBuilders(t *testing.T) {
	rng := sim.NewRNG(11)
	reused := NewProblem(nil, NewResource(1), 0, constPredictor(1))
	for trial := 0; trial < 40; trial++ {
		n, nodes := rng.IntIn(1, 12), rng.IntIn(1, 16)
		tasks := makeTasks(n, rng.UniformIn(5, 50))
		res := NewResource(nodes)
		for i := range res.Avail {
			res.Avail[i] = rng.UniformIn(0, 10)
		}
		base, pred := rng.UniformIn(0, 5), scalePredictor(rng.UniformIn(1, 40))
		reused.Reset(tasks, res, base, pred)
		fresh := NewProblem(tasks, res, base, pred)
		for k := 0; k < 5; k++ {
			sol := NewRandomSolution(n, nodes, rng)
			if got, want := reused.Cost(sol), fresh.Cost(sol); got != want {
				t.Fatalf("trial %d: cost after Reset %v, fresh problem %v", trial, got, want)
			}
		}
	}
}

// TestNegativePredictionPanics: a negative duration is a broken model,
// caught where it is predicted, per placement or at the table fill.
func TestNegativePredictionPanics(t *testing.T) {
	tasks := makeTasks(2, 1e9)
	sol := Solution{Order: []int{0, 1}, Maps: []uint64{1, 1}}
	for name, call := range map[string]func(){
		"one-shot build": func() { Build(sol, tasks, NewResource(1), 0, constPredictor(-1)) },
		"table fill":     func() { NewProblem(tasks, NewResource(1), 0, constPredictor(-1)).Cost(sol) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "negative predicted duration") {
					t.Errorf("%s: recovered %q, want the negative-duration panic", name, msg)
				}
			}()
			call()
		}()
	}
}

// TestBuilderValidatesResource asserts validation is hoisted to
// construction, not dropped.
func TestBuilderValidatesResource(t *testing.T) {
	if _, err := NewBuilder(nil, Resource{NumNodes: 2, Avail: []float64{0}}, constPredictor(1)); err == nil {
		t.Fatal("NewBuilder accepted an inconsistent resource")
	}
	if _, err := NewBuilder(nil, NewResource(2), nil); err == nil {
		t.Fatal("NewBuilder accepted a nil predictor")
	}
}

// TestItemForIndexed exercises the position index over a larger schedule
// and after repeated lookups.
func TestItemForIndexed(t *testing.T) {
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{ID: i, Deadline: 1e9}
	}
	res := NewResource(16)
	s := Build(NewRandomSolution(len(tasks), 16, sim.NewRNG(5)), tasks, res, 0, constPredictor(2))
	for pass := 0; pass < 2; pass++ { // second pass hits the built index
		for pos := 0; pos < len(tasks); pos++ {
			it, ok := s.ItemFor(pos)
			if !ok || it.TaskPos != pos {
				t.Fatalf("pass %d: ItemFor(%d) = %+v, %v", pass, pos, it, ok)
			}
		}
		if _, ok := s.ItemFor(len(tasks)); ok {
			t.Fatalf("pass %d: ItemFor out of range found a phantom task", pass)
		}
		if _, ok := s.ItemFor(-1); ok {
			t.Fatalf("pass %d: ItemFor(-1) found a phantom task", pass)
		}
	}
}
