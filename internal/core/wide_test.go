package core

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/ga"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wideGrid builds a twelve-resource, three-level hierarchy of mixed
// hardware and node counts.
func wideGrid(t testing.TB, opts Options) *Grid {
	t.Helper()
	hardware := []string{"SGIOrigin2000", "SunUltra5", "SunSPARCstation2"}
	specs := []ResourceSpec{{Name: "r0", Hardware: hardware[0], Nodes: 8}}
	for i := 1; i < 12; i++ {
		parent := "r0"
		if i > 3 {
			parent = specs[(i-1)/3].Name
		}
		specs = append(specs, ResourceSpec{
			Name:     "r" + string(rune('0'+i/10)) + string(rune('0'+i%10)),
			Hardware: hardware[i%len(hardware)],
			Nodes:    4 + 4*(i%2),
			Parent:   parent,
		})
	}
	g, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runWide drives a wide GA grid with a streamed trace and the streaming
// audit attached and returns the run's lifecycle CSV.
func runWide(t *testing.T) (string, *audit.Observer) {
	t.Helper()
	var csv strings.Builder
	sink := trace.NewCSVSink(&csv)
	rec := trace.NewRecorder(1)
	rec.SetRetention(false)
	rec.AddSink(sink)
	cfg := ga.DefaultConfig()
	cfg.PopulationSize, cfg.MaxGenerations, cfg.ConvergenceWindow = 20, 10, 4
	g := wideGrid(t, Options{
		Policy:    PolicyGA,
		GA:        cfg,
		UseAgents: true,
		Seed:      77,
		Trace:     rec,
	})
	obs := audit.NewObserver(g.NodesByResource())
	g.opts.Audit = obs
	reqs, err := workload.Generate(workload.Spec{
		Seed: 77, Count: 120, Interval: 0.5,
		AgentNames: g.hier.Names(),
		Library:    g.Library(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitWorkload(reqs); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(rec.Dropped()); err != nil {
		t.Fatal(err)
	}
	return csv.String(), obs
}

// TestGAWorkerWidthDeterminism: the same wide GA grid run twice streams
// a byte-identical lifecycle, and the streaming audit drains to zero
// in-flight state both times.
func TestGAWorkerWidthDeterminism(t *testing.T) {
	first, firstObs := runWide(t)
	second, secondObs := runWide(t)
	if first != second {
		t.Fatalf("lifecycle stream differs between two runs:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if n := strings.Count(first, ",arrive,"); n != 120 {
		t.Fatalf("lifecycle CSV holds %d arrive rows, want 120", n)
	}
	for _, obs := range []*audit.Observer{firstObs, secondObs} {
		if got := obs.InFlight(); got != 0 {
			t.Fatalf("streaming audit retained %d request states after the run drained", got)
		}
		if obs.PeakInFlight() == 0 {
			t.Fatal("streaming audit observed nothing")
		}
	}
}
