package audit_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// op is one call into an observer: a lifecycle event, an execution
// record, a dispatch-log entry or an Advance to at.
type op struct {
	kind opKind
	ev   trace.Event
	rec  scheduler.Record
	d    agent.Dispatch
	at   float64
}

type opKind uint8

const (
	opEvent opKind = iota
	opRecord
	opDispatch
	opAdvance
)

// observer is the surface Observer and the reference share.
type observer interface {
	Observe(trace.Event)
	ObserveRecord(scheduler.Record)
	ObserveDispatch(agent.Dispatch)
	Advance(float64)
	Finish(metrics.GridReport, uint64) audit.Result
}

// gridStream is one audited grid run as the observer saw it live.
type gridStream struct {
	name   string
	ops    []op
	nodes  map[string]int
	names  []string
	report metrics.GridReport
}

// recordStream runs a scenario file's grid at the given size under
// fifo-fast, audited live, and rebuilds the order the grid feeds its
// observer: each execution record just before its start event, each
// dispatch-log entry just before its dispatch event, and an Advance to
// the arrival time before every arrival.
func recordStream(t *testing.T, file string, count int) gridStream {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", file))
	if err != nil {
		t.Fatal(err)
	}
	spec.Policy = "fifo-fast"
	spec.Arrivals.Count = count
	resources, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(resources))
	for i, r := range resources {
		names[i] = r.Name
	}
	policy, err := core.ParsePolicy(spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	nodes := core.NodeCounts(resources, spec.ChurnPlan())
	live := audit.NewObserver(nodes)
	rec := trace.NewRecorder(8*count + 64)
	g, err := core.New(resources, core.Options{
		Policy: policy, UseAgents: spec.AgentsEnabled(), Seed: spec.Seed, Trace: rec, Audit: live,
		FaultPlan: spec.FaultPlan(), Migration: spec.MigrationPolicy(), Reservation: spec.ReservationPolicy(),
		Churn: spec.ChurnPlan(), Rebalance: spec.RebalancePolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := spec.Arrivals.BuildProcess()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Spec{
		Seed: spec.Seed, Count: count, AgentNames: names, Library: g.Library(),
		Arrivals: proc, AppWeights: spec.AppWeights, DeadlineScale: spec.DeadlineScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if rs := spec.Reservations; rs != nil && i%5 == 0 {
			err = g.SubmitReservationAt(r.At, r.AgentName, r.AppName, rs.Lead, rs.Duration, rs.Nodes, rs.Parts)
		} else {
			err = g.SubmitAt(r.At, r.AgentName, r.AppName, r.DeadlineRel)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Run() // failed requests are part of the stream, not of this test
	report, err := g.Metrics(workload.Summarise(reqs).Span)
	if err != nil {
		t.Fatal(err)
	}
	if res := live.Finish(report, 0); !res.OK() {
		t.Fatalf("%s: the live audit is not clean: %v", file, res.Err())
	}

	recs := map[uint64][]scheduler.Record{}
	for _, r := range g.Records() {
		recs[r.ReqID] = append(recs[r.ReqID], r)
	}
	disp := map[uint64][]agent.Dispatch{}
	for _, d := range g.Dispatches() {
		disp[d.ReqID] = append(disp[d.ReqID], d)
	}
	var ops []op
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindArrive:
			ops = append(ops, op{kind: opAdvance, at: ev.Time})
		case trace.KindStart:
			if rs := recs[ev.ReqID]; len(rs) > 0 {
				ops = append(ops, op{kind: opRecord, rec: rs[0]})
				recs[ev.ReqID] = rs[1:]
			}
		case trace.KindDispatch:
			if ds := disp[ev.ReqID]; len(ds) > 0 {
				ops = append(ops, op{kind: opDispatch, d: ds[0]})
				disp[ev.ReqID] = ds[1:]
			}
		}
		ops = append(ops, op{kind: opEvent, ev: ev})
	}
	for id, rs := range recs {
		if len(rs) > 0 {
			t.Fatalf("%s: request %d has a record without a start event", file, id)
		}
	}
	for id, ds := range disp {
		if len(ds) > 0 {
			t.Fatalf("%s: request %d has a dispatch-log entry without a dispatch event", file, id)
		}
	}
	return gridStream{name: file, ops: ops, nodes: nodes, names: names, report: report}
}

// feedLive plays ops in order. Each Advance is lowered to the earliest
// start of the records still to come, so every mutated stream keeps
// Advance's promise: what an observer reports about a stream that breaks
// it depends on when it prunes, not on what the stream proves. For the
// same reason the horizon stays below the end of any record that ends
// before it starts (a timing violation in itself): such an interval can
// sort after a later record yet have ended by the horizon, and whether
// the reference still held it depended on when its amortized sweep last
// ran.
func feedLive(o observer, ops []op, report metrics.GridReport) audit.Result {
	inverted := math.Inf(1)
	for _, p := range ops {
		if p.kind == opRecord && p.rec.End < p.rec.Start {
			inverted = min(inverted, math.Nextafter(p.rec.End, math.Inf(-1)))
		}
	}
	horizon := make([]float64, len(ops))
	next := inverted
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].kind == opRecord {
			next = min(next, ops[i].rec.Start)
		}
		horizon[i] = min(ops[i].at, next)
	}
	for i, p := range ops {
		switch p.kind {
		case opEvent:
			o.Observe(p.ev)
		case opRecord:
			o.ObserveRecord(p.rec)
		case opDispatch:
			o.ObserveDispatch(p.d)
		case opAdvance:
			o.Advance(horizon[i])
		}
	}
	return o.Finish(report, 0)
}

// asRun splits ops into the batch form: records, dispatches and events,
// each in stream order — the order the bench's lifecycle probe replays.
func asRun(s gridStream, ops []op) audit.Run {
	run := audit.Run{Nodes: s.nodes, Report: s.report}
	for _, p := range ops {
		switch p.kind {
		case opEvent:
			run.Events = append(run.Events, p.ev)
		case opRecord:
			run.Records = append(run.Records, p.rec)
		case opDispatch:
			run.Dispatches = append(run.Dispatches, p.d)
		}
	}
	return run
}

// feedBatch plays a run to a live observer in the probe's order.
func feedBatch(o observer, run audit.Run) audit.Result {
	for _, r := range run.Records {
		o.ObserveRecord(r)
	}
	for _, d := range run.Dispatches {
		o.ObserveDispatch(d)
	}
	for _, ev := range run.Events {
		o.Observe(ev)
	}
	return o.Finish(run.Report, 0)
}

// mutate applies one seeded corruption to a copy of ops: drop, duplicate
// or swap one event, record or dispatch; shift its time; or retarget its
// resource, task or request.
func mutate(rng *rand.Rand, ops []op, names []string) ([]op, string) {
	out := slices.Clone(ops)
	pick := func() int {
		for {
			if i := rng.Intn(len(out)); out[i].kind != opAdvance {
				return i
			}
		}
	}
	i := pick()
	what := fmt.Sprintf("op %d (%v)", i, describe(out[i]))
	switch rng.Intn(6) {
	case 0:
		return slices.Delete(out, i, i+1), "drop " + what
	case 1:
		j := min(len(out), i+1+rng.Intn(40))
		return slices.Insert(out, j, out[i]), fmt.Sprintf("duplicate %s at %d", what, j)
	case 2:
		j := pick()
		if rng.Intn(2) == 0 {
			j = min(len(out)-1, i+1+rng.Intn(6))
		}
		out[i], out[j] = out[j], out[i]
		return out, fmt.Sprintf("swap %s with op %d", what, j)
	case 3:
		delta := []float64{-100, -2, -0.5, 0.5, 2, 100}[rng.Intn(6)]
		p := &out[i]
		switch p.kind {
		case opEvent:
			p.ev.Time += delta
		case opRecord:
			switch rng.Intn(3) {
			case 0:
				p.rec.Start += delta
			case 1:
				p.rec.End += delta
			default:
				p.rec.Start += delta
				p.rec.End += delta
			}
		case opDispatch:
			p.d.TaskID++
		}
		return out, fmt.Sprintf("shift %s by %g", what, delta)
	case 4:
		name := "S99"
		if k := rng.Intn(len(names) + 2); k < len(names) {
			name = names[k]
		} else if k == len(names) {
			name = ""
		}
		p := &out[i]
		switch p.kind {
		case opEvent:
			if p.ev.Resource == "" {
				p.ev.Agent = name
			} else {
				p.ev.Resource = name
			}
		case opRecord:
			p.rec.Resource = name
		case opDispatch:
			p.d.Resource = name
		}
		return out, fmt.Sprintf("retarget %s to %q", what, name)
	default:
		p := &out[i]
		if rng.Intn(3) == 0 {
			id := uint64(rng.Intn(40))
			switch p.kind {
			case opEvent:
				p.ev.ReqID = id
			case opRecord:
				p.rec.ReqID = id
			case opDispatch:
				p.d.ReqID = id
			}
			return out, fmt.Sprintf("move %s to request %d", what, id)
		}
		delta := 1 - 2*rng.Intn(2)
		switch p.kind {
		case opEvent:
			p.ev.TaskID += delta
		case opRecord:
			p.rec.TaskID += delta
		case opDispatch:
			p.d.TaskID += delta
		}
		return out, fmt.Sprintf("retask %s by %d", what, delta)
	}
}

func describe(p op) string {
	switch p.kind {
	case opEvent:
		return fmt.Sprintf("%s req %d", p.ev.Kind, p.ev.ReqID)
	case opRecord:
		return fmt.Sprintf("record req %d", p.rec.ReqID)
	default:
		return fmt.Sprintf("dispatch req %d", p.d.ReqID)
	}
}

// sameResult reports where two verdicts differ, or "".
func sameResult(got, want audit.Result) string {
	if got.Counts != want.Counts {
		return fmt.Sprintf("counts %+v, reference %+v", got.Counts, want.Counts)
	}
	if got.Truncated != want.Truncated {
		return fmt.Sprintf("truncated %v, reference %v", got.Truncated, want.Truncated)
	}
	if len(got.Violations) == 0 && len(want.Violations) == 0 {
		return ""
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		for i := 0; i < max(len(got.Violations), len(want.Violations)); i++ {
			var g, w audit.Violation
			if i < len(got.Violations) {
				g = got.Violations[i]
			}
			if i < len(want.Violations) {
				w = want.Violations[i]
			}
			if g != w {
				return fmt.Sprintf("%d vs %d violations; #%d is %q, reference %q", len(got.Violations), len(want.Violations), i, g, w)
			}
		}
	}
	return ""
}

// TestObserverMatchesReference holds the observer to the reference it
// replaced, violation for violation, on clean grid streams and on seeded
// corruptions of them, fed in the grid's live order, in the probe's
// batch order, and through Check.
func TestObserverMatchesReference(t *testing.T) {
	files := []string{"fig7.json", "degraded.json", "reserved.json", "churn.json", "regress/churn-crash.json"}
	mutations := 120
	if testing.Short() {
		mutations = 30
	}
	rng := rand.New(rand.NewSource(41))
	failing, total := 0, 0
	checks := map[string]int{}
	for _, file := range files {
		s := recordStream(t, file, 120)
		for m := 0; m <= mutations; m++ {
			ops, what := s.ops, "clean"
			if m > 0 {
				ops, what = mutate(rng, s.ops, s.names)
				for rng.Intn(3) == 0 {
					var more string
					ops, more = mutate(rng, ops, s.names)
					what += "; " + more
				}
			}
			want := feedLive(audit.NewRefObserver(s.nodes), ops, s.report)
			if diff := sameResult(feedLive(audit.NewObserver(s.nodes), ops, s.report), want); diff != "" {
				t.Fatalf("%s, %s, live order: %s", file, what, diff)
			}
			run := asRun(s, ops)
			if diff := sameResult(feedBatch(audit.NewObserver(s.nodes), run), feedBatch(audit.NewRefObserver(s.nodes), run)); diff != "" {
				t.Fatalf("%s, %s, probe order: %s", file, what, diff)
			}
			if diff := sameResult(audit.Check(run), audit.RefCheck(run)); diff != "" {
				t.Fatalf("%s, %s, Check: %s", file, what, diff)
			}
			if m == 0 && !want.OK() {
				t.Fatalf("%s: the clean stream does not audit clean: %v", file, want.Err())
			}
			total++
			if !want.OK() {
				failing++
			}
			for _, v := range want.Violations {
				checks[v.Check]++
			}
		}
	}
	// The comparison means something only if the corruptions are caught.
	if failing < total/2 {
		t.Fatalf("only %d of %d streams have violations", failing, total)
	}
	for _, c := range []string{"conservation", "exclusivity", "timing", "placement", "identity"} {
		if checks[c] == 0 {
			t.Errorf("no mutated stream raised a %q violation: %v", c, checks)
		}
	}
	t.Logf("%d streams, %d with violations; by check: %v", total, failing, checks)
}
