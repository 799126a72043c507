package scheduler

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/sim"
)

func newTestLocal(t testing.TB, name string, policy Policy, nodes int) *Local {
	t.Helper()
	l, err := NewLocal(Config{
		Name:     name,
		HW:       pace.SGIOrigin2000,
		NumNodes: nodes,
		Policy:   policy,
		Engine:   pace.NewEngine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newGAForTest(seed uint64) *GAPolicy {
	cfg := ga.DefaultConfig()
	cfg.MaxGenerations = 25
	cfg.ConvergenceWindow = 6
	return NewGAPolicy(cfg, sim.NewRNG(seed))
}

func TestNewLocalValidation(t *testing.T) {
	good := Config{Name: "S1", HW: pace.SGIOrigin2000, NumNodes: 4, Policy: NewFIFOPolicy(), Engine: pace.NewEngine()}
	if _, err := NewLocal(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(Config) Config{
		func(c Config) Config { c.Name = ""; return c },
		func(c Config) Config { c.HW = pace.Hardware{}; return c },
		func(c Config) Config { c.NumNodes = 0; return c },
		func(c Config) Config { c.NumNodes = 100; return c },
		func(c Config) Config { c.Policy = nil; return c },
		func(c Config) Config { c.Engine = nil; return c },
	}
	for i, mut := range cases {
		if _, err := NewLocal(mut(good)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLocalDefaults(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	envs := l.Environments()
	if len(envs) != 1 || envs[0] != "test" {
		t.Fatalf("default environments = %v, want [test]", envs)
	}
	if !l.SupportsEnvironment("test") || l.SupportsEnvironment("mpi") {
		t.Fatal("environment matchmaking wrong")
	}
	if l.PolicyName() != "fifo" {
		t.Fatalf("policy name %q", l.PolicyName())
	}
}

// TestLocalIdentityIsOwnCopy: a Local's environments are fixed at
// NewLocal. Mutating the caller's slice afterwards, or the one
// Environments returns, changes neither the advertisement nor
// matchmaking — peers refresh a cached advertisement in place on that
// promise.
func TestLocalIdentityIsOwnCopy(t *testing.T) {
	envs := []string{"mpi", "test"}
	l, err := NewLocal(Config{
		Name:         "S1",
		HW:           pace.SGIOrigin2000,
		NumNodes:     4,
		Policy:       NewFIFOPolicy(),
		Engine:       pace.NewEngine(),
		Environments: envs,
	})
	if err != nil {
		t.Fatal(err)
	}
	envs[0], envs[1] = "pvm", "bogus"
	l.Environments()[0] = "bogus"
	if got := l.ServiceInfo().Environments; !reflect.DeepEqual(got, []string{"mpi", "test"}) {
		t.Fatalf("advertised environments = %v after the caller's slice changed, want [mpi test]", got)
	}
	if !l.SupportsEnvironment("mpi") || !l.SupportsEnvironment("test") || l.SupportsEnvironment("pvm") || l.SupportsEnvironment("bogus") {
		t.Fatal("matchmaking follows the caller's slice")
	}
}

func TestLocalLifecycleFIFO(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 16)
	app := appOf(t, "fft") // 10s on 16 nodes, 25s on 1

	id, err := l.Submit(app, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero task ID")
	}
	if l.QueueLen() != 1 {
		t.Fatalf("queue length %d after submit", l.QueueLen())
	}
	// The plan starts the task immediately; advancing past 0 promotes it.
	l.AdvanceTo(1)
	if l.QueueLen() != 0 {
		t.Fatalf("task not promoted at its start time; queue %d", l.QueueLen())
	}
	recs := l.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.TaskID != id || r.Resource != "S1" || r.Start != 0 {
		t.Fatalf("record %+v", r)
	}
	if r.End != 10 { // fft on all 16 nodes
		t.Fatalf("fft completion %v, want 10", r.End)
	}
}

func TestLocalDrainCompletesEverything(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 2)
	app := appOf(t, "sweep3d")
	for i := 0; i < 5; i++ {
		if _, err := l.Submit(app, 1e9, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Drain()
	if l.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", l.QueueLen())
	}
	recs := l.Records()
	if len(recs) != 5 {
		t.Fatalf("%d records after drain, want 5", len(recs))
	}
	var maxEnd float64
	for _, r := range recs {
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	if end != maxEnd {
		t.Fatalf("Drain returned %v, want %v", end, maxEnd)
	}
}

func TestLocalNoNodeOverlapInRecords(t *testing.T) {
	for _, pol := range []Policy{NewFIFOPolicy(), newGAForTest(1)} {
		l := newTestLocal(t, "S1", pol, 4)
		apps := []string{"sweep3d", "fft", "improc", "closure", "jacobi", "memsort", "cpi"}
		for i := 0; i < 20; i++ {
			if _, err := l.Submit(appOf(t, apps[i%len(apps)]), 1e9, float64(i)*2); err != nil {
				t.Fatal(err)
			}
		}
		l.Drain()
		recs := l.Records()
		if len(recs) != 20 {
			t.Fatalf("%s: %d records, want 20", pol.Name(), len(recs))
		}
		// No two records may overlap on a node.
		for node := 0; node < 4; node++ {
			type iv struct{ a, b float64 }
			var ivs []iv
			for _, r := range recs {
				if r.Mask&(1<<uint(node)) != 0 {
					ivs = append(ivs, iv{r.Start, r.End})
				}
			}
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.a < b.b-1e-9 && b.a < a.b-1e-9 {
						t.Fatalf("%s: node %d double-booked: %+v and %+v", pol.Name(), node, a, b)
					}
				}
			}
		}
		// Every record respects arrival and uses at least one node.
		for _, r := range recs {
			if r.Start < r.Arrival {
				t.Fatalf("%s: task %d started %v before arrival %v", pol.Name(), r.TaskID, r.Start, r.Arrival)
			}
			if r.Mask == 0 {
				t.Fatalf("%s: task %d has empty node mask", pol.Name(), r.TaskID)
			}
		}
	}
}

func TestLocalGAMeetsDeadlinesBetterThanFIFO(t *testing.T) {
	// A queue where FIFO's fixed order wastes capacity: long sweep3d tasks
	// with loose deadlines arrive before short closure tasks with tight
	// deadlines. The GA can reorder; FIFO cannot.
	run := func(pol Policy) (met int) {
		l := newTestLocal(t, "S", pol, 4)
		var ids []int
		for i := 0; i < 6; i++ {
			id, err := l.Submit(appOf(t, "sweep3d"), 2000, 0)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < 6; i++ {
			id, err := l.Submit(appOf(t, "closure"), 40, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		l.Drain()
		for _, r := range l.Records() {
			if r.End <= r.Deadline {
				met++
			}
		}
		return met
	}
	fifoMet := run(NewFIFOPolicy())
	gaMet := run(newGAForTest(2))
	if gaMet < fifoMet {
		t.Fatalf("GA met %d deadlines, FIFO met %d; GA must not be worse on a reorderable workload", gaMet, fifoMet)
	}
}

func TestLocalDelete(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 1)
	app := appOf(t, "fft")
	id1, _ := l.Submit(app, 1e9, 0)
	// Task 1 starts at 0 immediately; it cannot be deleted at t=1.
	id2, _ := l.Submit(app, 1e9, 1)
	if err := l.Delete(id1, 1); err == nil {
		t.Fatal("deleted a task that already began execution")
	}
	if err := l.Delete(id2, 1); err != nil {
		t.Fatalf("deleting a waiting task: %v", err)
	}
	if l.QueueLen() != 0 {
		t.Fatalf("queue length %d after delete", l.QueueLen())
	}
	if err := l.Delete(9999, 2); err == nil {
		t.Fatal("deleted a phantom task")
	}
	l.Drain()
	if len(l.Records()) != 1 {
		t.Fatalf("%d records, want only the first task", len(l.Records()))
	}
}

func TestLocalClockMonotonic(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 1)
	l.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	l.AdvanceTo(5)
}

func TestLocalFreetimeTracksPlan(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 16)
	if ft := l.Freetime(); ft != 0 {
		t.Fatalf("idle freetime = %v, want 0", ft)
	}
	// fft on 16 nodes takes 10s.
	_, _ = l.Submit(appOf(t, "fft"), 1e9, 0)
	if ft := l.Freetime(); ft != 10 {
		t.Fatalf("freetime = %v, want 10 (the plan makespan)", ft)
	}
	l.AdvanceTo(4)
	if ft := l.Freetime(); ft != 10 {
		t.Fatalf("freetime after promotion = %v, want 10 (committed busy horizon)", ft)
	}
	l.AdvanceTo(50)
	if ft := l.Freetime(); ft != 50 {
		t.Fatalf("freetime = %v, want now (=50) once all work is done", ft)
	}
}

func TestLocalEstimateCompletionEq10(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 16)
	// Idle resource: η_r = 0 + min_k t(k). For sweep3d min over Table 1 is
	// 4 (at 15-16 procs).
	eta, err := l.EstimateCompletion(appOf(t, "sweep3d"))
	if err != nil {
		t.Fatal(err)
	}
	if eta != 4 {
		t.Fatalf("η = %v, want 4", eta)
	}
	// With work queued, the estimate shifts by the freetime ω.
	_, _ = l.Submit(appOf(t, "fft"), 1e9, 0) // occupies pool until t=10
	eta, err = l.EstimateCompletion(appOf(t, "sweep3d"))
	if err != nil {
		t.Fatal(err)
	}
	if eta != 14 {
		t.Fatalf("η = %v, want 10 + 4", eta)
	}
}

func TestLocalServiceInfo(t *testing.T) {
	l := newTestLocal(t, "S7", NewFIFOPolicy(), 16)
	si := l.ServiceInfo()
	if si.Name != "S7" || si.HWType != "SGIOrigin2000" || si.NProc != 16 {
		t.Fatalf("service info %+v", si)
	}
	if si.Freetime != 0 {
		t.Fatalf("idle freetime %v", si.Freetime)
	}
	if len(si.Environments) != 1 || si.Environments[0] != "test" {
		t.Fatalf("environments %v", si.Environments)
	}
	// Mutating the returned slice must not affect the scheduler.
	si.Environments[0] = "hacked"
	if !l.SupportsEnvironment("test") {
		t.Fatal("service info aliases internal state")
	}
}

func TestLocalSubmitNilApp(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 2)
	if _, err := l.Submit(nil, 1e9, 0); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestLocalExecutorSeesLaunches(t *testing.T) {
	exec := &TestExecutor{}
	l, err := NewLocal(Config{
		Name: "S1", HW: pace.SGIOrigin2000, NumNodes: 2,
		Policy: NewFIFOPolicy(), Engine: pace.NewEngine(), Executor: exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = l.Submit(appOf(t, "fft"), 1e9, 0)
	l.Drain()
	if len(exec.Launched) != 1 {
		t.Fatalf("executor saw %d launches, want 1", len(exec.Launched))
	}
}

// TestLocalDefaultExecutorKeepsNothing is the guard on the default
// executor: a Local built without one (every farm node, every daemon
// without -exec, an unaudited grid) must not keep a launch record per
// task for the life of the process. The scheduler's own records are the
// only copy.
func TestLocalDefaultExecutorKeepsNothing(t *testing.T) {
	const tasks = 500
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 4)
	for i := 0; i < tasks; i++ {
		if _, err := l.Submit(appOf(t, "fft"), 1e9, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Drain()
	if n := len(l.Records()); n != tasks {
		t.Fatalf("%d records after %d tasks", n, tasks)
	}
	if te, ok := l.cfg.Executor.(*TestExecutor); ok {
		t.Fatalf("the default executor kept %d launch records", len(te.Launched))
	}
	if typ := reflect.TypeOf(l.cfg.Executor); typ.Size() != 0 {
		t.Fatalf("the default executor %v has %d bytes of state to keep records in", typ, typ.Size())
	}
}

func TestLocalRecordsSortedByStart(t *testing.T) {
	l := newTestLocal(t, "S1", newGAForTest(3), 4)
	for i := 0; i < 12; i++ {
		_, _ = l.Submit(appOf(t, "memsort"), 1e9, float64(i))
	}
	l.Drain()
	recs := l.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("records unsorted at %d", i)
		}
	}
}

func TestLocalGADeterministic(t *testing.T) {
	run := func() []Record {
		l := newTestLocal(t, "S1", newGAForTest(77), 8)
		for i := 0; i < 10; i++ {
			_, _ = l.Submit(appOf(t, "jacobi"), 200, float64(i))
		}
		l.Drain()
		return l.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// The App pointers come from per-run libraries; compare by name.
		x, y := a[i], b[i]
		if x.App.Name != y.App.Name {
			t.Fatalf("record %d app differs: %s vs %s", i, x.App.Name, y.App.Name)
		}
		x.App, y.App = nil, nil
		if x != y {
			t.Fatalf("record %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestLocalMaskWithinPool(t *testing.T) {
	l := newTestLocal(t, "S1", newGAForTest(4), 5)
	for i := 0; i < 10; i++ {
		_, _ = l.Submit(appOf(t, "cpi"), 1e9, float64(i))
	}
	l.Drain()
	for _, r := range l.Records() {
		if r.Mask&^uint64(0b11111) != 0 {
			t.Fatalf("mask %b outside the 5-node pool", r.Mask)
		}
		if bits.OnesCount64(r.Mask) < 1 {
			t.Fatal("empty mask")
		}
	}
}

func TestLocalPlanned(t *testing.T) {
	l := newTestLocal(t, "S1", NewFIFOPolicy(), 16)
	if got := l.Planned(); len(got) != 0 {
		t.Fatalf("fresh scheduler has %d planned tasks", len(got))
	}
	// Two fft tasks: the first occupies the whole pool, the second queues.
	id1, _ := l.Submit(appOf(t, "fft"), 1e9, 0)
	id2, _ := l.Submit(appOf(t, "fft"), 1e9, 0.5)
	// At t=0.5 the first task has started (start 0 <= now); only the
	// second remains planned.
	planned := l.Planned()
	if len(planned) != 1 || planned[0].TaskID != id2 {
		t.Fatalf("planned = %+v", planned)
	}
	if planned[0].Start < 10 { // behind the first task's 10s run
		t.Fatalf("planned start %v, want >= 10", planned[0].Start)
	}
	if l.IsPlanned(id1) || !l.IsPlanned(id2) || l.IsPlanned(9999) {
		t.Fatalf("IsPlanned(started, queued, phantom) = %t, %t, %t", l.IsPlanned(id1), l.IsPlanned(id2), l.IsPlanned(9999))
	}
	l.Drain()
	if got := l.Planned(); len(got) != 0 || l.IsPlanned(id2) {
		t.Fatalf("%d planned tasks after drain, IsPlanned %t", len(got), l.IsPlanned(id2))
	}
	if len(l.Records()) != 2 {
		t.Fatalf("%d records", len(l.Records()))
	}
}
