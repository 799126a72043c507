package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestSyntheticResourcesShape checks the scale study's generated
// hierarchy and its measurement window.
func TestSyntheticResourcesShape(t *testing.T) {
	p := DefaultParams()
	specs, err := p.ScaleRuns([]int{13}, 3, 20)[0].Spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 13 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Parent != "" {
		t.Fatal("first agent is not the head")
	}
	// b-ary tree parents: agent i+1 hangs under (i-1)/b + 1.
	if specs[1].Parent != "A1" || specs[4].Parent != "A2" || specs[12].Parent != "A4" {
		t.Fatalf("tree wiring wrong: %v %v %v", specs[1].Parent, specs[4].Parent, specs[12].Parent)
	}
	// The grid must build and validate as a single-headed hierarchy.
	if _, err := core.New(specs, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// The window floor is the fixed request phase: at the sizes gridexp
	// runs, Count × (phase/Count) is the phase exactly.
	for _, r := range p.ScaleRuns([]int{6, 12, 24, 48}, 3, 50) {
		n := r.Spec.Topology.Agents
		a := r.Spec.Arrivals
		if a.Count != 50*n || float64(a.Count)*a.Interval != 600 {
			t.Fatalf("%d agents: %d requests at %g s do not span the 600 s phase", n, a.Count, a.Interval)
		}
	}
}

func TestScalabilityStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability study in short mode")
	}
	p := QuickParams()
	pts := runStudy(t, p.ScaleRuns([]int{3, 6}, 3, 20), scenario.RunOptions{Telemetry: true})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Requests != 20*pt.Agents {
			t.Fatalf("point %+v: wrong request count", pt)
		}
		if pt.Audit == nil || !pt.Audit.OK() || pt.Audit.Counts.Requests != pt.Requests {
			t.Fatalf("point %+v: not audited clean", pt)
		}
		if pt.MeanHops < 0 || pt.MaxHops > pt.Agents {
			t.Fatalf("implausible hop counts: %+v", pt)
		}
		if pt.Upsilon <= 0 {
			t.Fatalf("zero utilisation: %+v", pt)
		}
		// Every size exports its own telemetry, counting its own requests.
		if pt.Telemetry == nil || pt.Telemetry.Snapshot.Counters["grid_requests_total"] != uint64(pt.Requests) {
			t.Fatalf("%s: telemetry missing or mixed with another size", pt.Label)
		}
	}
	out := FormatScalability(pts)
	if !strings.Contains(out, "agents") || !strings.Contains(out, "mean hops") {
		t.Fatalf("format output:\n%s", out)
	}
}

// TestScalabilityStudyRejectsDegenerateSizes checks that sizes below one
// agent and negative branching are errors, not silently clamped.
func TestScalabilityStudyRejectsDegenerateSizes(t *testing.T) {
	p := QuickParams()
	if _, err := RunStudy(p.ScaleRuns([]int{0}, 3, 20), scenario.RunOptions{}); err == nil {
		t.Fatal("a 0-agent grid was accepted")
	}
	if _, err := RunStudy(p.ScaleRuns([]int{3}, -1, 20), scenario.RunOptions{}); err == nil {
		t.Fatal("negative branching was accepted")
	}
}

func TestAccuracyStudyBiasDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy study in short mode")
	}
	p := QuickParams()
	pts := runStudy(t, p.AccuracyRuns([]NoiseCase{{0, 0}, {0.2, 0.5}}), scenario.RunOptions{})
	exact, biased := pts[0], pts[1]
	if exact.Spec.PredictionError != 0 || biased.Spec.PredictionBias != 0.5 {
		t.Fatalf("points mislabelled: %+v", pts)
	}
	// Systematically optimistic predictions must hurt deadline compliance
	// and ε (the §5 accuracy question).
	if biased.HitRate >= exact.HitRate {
		t.Errorf("bias did not reduce the met rate: %v -> %v", exact.HitRate, biased.HitRate)
	}
	if biased.Epsilon >= exact.Epsilon {
		t.Errorf("bias did not reduce ε: %v -> %v", exact.Epsilon, biased.Epsilon)
	}
	// Every request must still complete under noisy and biased
	// predictions, and both runs must audit clean.
	if exact.Completed != p.Requests || biased.Completed != p.Requests {
		t.Errorf("task accounting wrong: %+v", pts)
	}
	if !exact.AuditOK || !biased.AuditOK {
		t.Errorf("accuracy runs not audited clean: %v %v", exact.AuditOK, biased.AuditOK)
	}
	out := FormatAccuracy(pts)
	if !strings.Contains(out, "met rate") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestPushAdvertsOptionRuns(t *testing.T) {
	p := QuickParams()
	p.Requests = 60
	spec := p.caseStudy(Configs[2])
	names, err := spec.Topology.AgentNames()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := core.New(scenario.Fig7Resources(), core.Options{
		Policy: core.PolicyGA, GA: spec.GAConfig(), Seed: p.Seed,
		UseAgents: true, PushAdverts: true,
		PullPeriod: 300, // starve the pulls; pushes must carry the load
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Requests; i++ {
		if err := grid.SubmitAt(float64(i), names[i%12], "fft", 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := grid.Run(); err != nil {
		t.Fatal(err)
	}
	pushes := 0
	for _, name := range names {
		a, _ := grid.Hierarchy().Lookup(name)
		pushes += a.Stats().PushesSent
	}
	if pushes == 0 {
		t.Fatal("push-advertisement mode sent no pushes")
	}
	if len(grid.Records()) != p.Requests {
		t.Fatalf("%d records", len(grid.Records()))
	}
}
