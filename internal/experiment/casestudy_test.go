package experiment

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pace"
	"repro/internal/scenario"
)

func TestCaseStudyResourcesMatchFig7(t *testing.T) {
	specs, err := DefaultParams().caseStudy(Configs[0]).Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("%d resources, want 12", len(specs))
	}
	wantHW := map[string]string{
		"S1": "SGIOrigin2000", "S2": "SGIOrigin2000",
		"S3": "SunUltra10", "S4": "SunUltra10",
		"S5": "SunUltra5", "S6": "SunUltra5", "S7": "SunUltra5",
		"S8": "SunUltra1", "S9": "SunUltra1", "S10": "SunUltra1",
		"S11": "SunSPARCstation2", "S12": "SunSPARCstation2",
	}
	heads := 0
	for _, s := range specs {
		if s.Nodes != 16 {
			t.Errorf("%s has %d nodes, want 16", s.Name, s.Nodes)
		}
		if wantHW[s.Name] != s.Hardware {
			t.Errorf("%s hardware %s, want %s", s.Name, s.Hardware, wantHW[s.Name])
		}
		if s.Parent == "" {
			heads++
			if s.Name != "S1" {
				t.Errorf("head is %s, want S1", s.Name)
			}
		}
	}
	if heads != 1 {
		t.Fatalf("%d heads", heads)
	}
	// The grid must actually build.
	if _, err := core.New(specs, core.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigsMatchTable2(t *testing.T) {
	if len(Configs) != 3 {
		t.Fatalf("%d experiment configs", len(Configs))
	}
	if Configs[0].Policy != core.PolicyFIFO || Configs[0].UseAgents {
		t.Error("experiment 1 must be FIFO without agents")
	}
	if Configs[1].Policy != core.PolicyGA || Configs[1].UseAgents {
		t.Error("experiment 2 must be GA without agents")
	}
	if Configs[2].Policy != core.PolicyGA || !Configs[2].UseAgents {
		t.Error("experiment 3 must be GA with agents")
	}
}

// TestCaseStudyShape runs a reduced version of all three experiments and
// asserts the paper's qualitative results: experiment 2 improves on
// experiment 1, and experiment 3 dominates both on every grid-wide metric
// (Table 3 / Figs. 8–10 trends).
func TestCaseStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("case study run in short mode")
	}
	outs := runStudy(t, QuickParams().CaseStudyRuns(), scenario.RunOptions{})
	e1, e2, e3 := outs[0].Report.Total, outs[1].Report.Total, outs[2].Report.Total

	// Fig. 8: ε improves monotonically across experiments.
	if !(e1.Epsilon <= e2.Epsilon && e2.Epsilon < e3.Epsilon) {
		t.Errorf("ε trend broken: %v, %v, %v", e1.Epsilon, e2.Epsilon, e3.Epsilon)
	}
	// Fig. 9: the agent-based mechanism contributes most to utilisation.
	if !(e3.Upsilon > e2.Upsilon && e3.Upsilon > e1.Upsilon) {
		t.Errorf("υ trend broken: %v, %v, %v", e1.Upsilon, e2.Upsilon, e3.Upsilon)
	}
	// Fig. 10: grid-wide load balancing improves dramatically with agents.
	if !(e3.Beta > e2.Beta+15 && e3.Beta > e1.Beta+15) {
		t.Errorf("β trend broken: %v, %v, %v", e1.Beta, e2.Beta, e3.Beta)
	}
	// All requests accounted for in every experiment.
	for _, o := range outs {
		if o.Report.Total.Tasks != o.Requests {
			t.Errorf("experiment %d lost tasks: %d of %d", o.Setup.ID, o.Report.Total.Tasks, o.Requests)
		}
	}
	// Local GA load balancing: per-resource β improves from 1 to 2 on
	// average (the §4.2 experiment-2 observation).
	var b1, b2 float64
	for i := range outs[0].Report.PerResource {
		b1 += outs[0].Report.PerResource[i].Beta
		b2 += outs[1].Report.PerResource[i].Beta
	}
	if b2 <= b1 {
		t.Errorf("GA did not improve average local β: %v -> %v", b1/12, b2/12)
	}
	// Experiment 3 sends more requests to the powerful platforms (§4.2).
	count := func(o Outcome, res string) int {
		n := 0
		for _, d := range o.Dispatches {
			if d.Resource == res {
				n++
			}
		}
		return n
	}
	if count(outs[2], "S1")+count(outs[2], "S2") <= count(outs[1], "S1")+count(outs[1], "S2") {
		t.Error("agents did not shift load towards the powerful platforms")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := QuickParams()
	p.Requests = 60
	run := p.CaseStudyRuns()[1]
	outs := runStudy(t, []Run{run, run}, scenario.RunOptions{})
	a, b := outs[0], outs[1]
	if a.Report.Total.Epsilon != b.Report.Total.Epsilon ||
		a.Report.Total.Upsilon != b.Report.Total.Upsilon ||
		a.Report.Total.Beta != b.Report.Total.Beta {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a.Report.Total, b.Report.Total)
	}
}

func TestFormatTable1(t *testing.T) {
	out, err := FormatTable1(pace.CaseStudyLibrary(), pace.NewEngine(), pace.SGIOrigin2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sweep3d", "cpi", "[4,200]", "  50", "  10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTable2(t *testing.T) {
	out := FormatTable2()
	if !strings.Contains(out, "FIFO") || !strings.Contains(out, "Agent-based") {
		t.Fatalf("Table 2 output:\n%s", out)
	}
}

func TestFormatReportsSmoke(t *testing.T) {
	p := QuickParams()
	p.Requests = 40
	outs := runStudy(t, p.CaseStudyRuns()[:1], scenario.RunOptions{})
	for _, s := range []string{
		FormatTable3(outs),
		FormatTrends(outs, TrendEpsilon),
		FormatTrends(outs, TrendUpsilon),
		FormatTrends(outs, TrendBeta),
		FormatDispatchSummary(outs),
	} {
		if !strings.Contains(s, "S12") {
			t.Fatalf("report missing S12:\n%s", s)
		}
	}
	if !strings.Contains(FormatTable3(outs), "Total") {
		t.Fatal("Table 3 missing Total row")
	}
	if out := FormatTrends(outs, Trend("nope")); !strings.Contains(out, "unknown trend") {
		t.Fatal("unknown trend not reported")
	}
	// Empty outcome lists do not panic.
	_ = FormatTable3(nil)
	_ = FormatTrends(nil, TrendBeta)
	_ = FormatDispatchSummary(nil)
}

func TestAgentNamesOrder(t *testing.T) {
	names, err := DefaultParams().caseStudy(Configs[0]).Topology.AgentNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 12 || names[0] != "S1" || names[11] != "S12" {
		t.Fatalf("AgentNames = %v", names)
	}
}

// TestRunStudyIdenticalAcrossWorkers: a study run twice gives the same
// outcomes — every result and record of every run, in the runs' order —
// although the study's runs themselves run concurrently.
func TestRunStudyIdenticalAcrossWorkers(t *testing.T) {
	p := QuickParams()
	p.Requests = 60
	runs := p.MigrationRuns(ScaledDegradedPlan(phase(p)), DefaultMigrationPolicy())
	first := runStudy(t, runs, scenario.RunOptions{})
	second := runStudy(t, runs, scenario.RunOptions{})
	for i := range runs {
		if first[i].Label != runs[i].Label || second[i].Label != runs[i].Label {
			t.Fatalf("outcome %d is %q / %q, want %q", i, first[i].Label, second[i].Label, runs[i].Label)
		}
		a, b := first[i].Result, second[i].Result
		a.WallClock, a.Audit, b.WallClock, b.Audit = 0, nil, 0, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s differs between two runs of the study", runs[i].Label)
		}
	}
}
