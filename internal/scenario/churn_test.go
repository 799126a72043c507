package scenario

import (
	"encoding/json"
	"testing"

	"repro/internal/membership"
)

// churnFig7 is the Fig. 7 case study with a scripted join, a scripted
// leave and the rebalancer on — the composition Experiment 7 uses.
func churnFig7() Spec {
	s := Fig7()
	s.Arrivals.Count = 80
	s.Churn = &ChurnSpec{
		Plan: membership.Plan{
			Joins:  []membership.Join{{Time: 20, Name: "S13", Hardware: "SGIOrigin2000", Nodes: 16, Parent: "S5"}},
			Leaves: []membership.Leave{{Time: 60, Name: "S9"}},
		},
		Rebalance: &RebalanceSpec{Enabled: true, Policy: membership.Policy{MinLoad: 1, Window: 1, Cooldown: 10}},
	}
	return s
}

func TestChurnSpecValidation(t *testing.T) {
	if err := churnFig7().Validate(); err != nil {
		t.Fatalf("valid churn spec rejected: %v", err)
	}

	off := false
	bad := churnFig7()
	bad.UseAgents = &off
	if err := bad.Validate(); err == nil {
		t.Fatal("churn without agents accepted")
	}

	bad = churnFig7()
	bad.Churn.Joins[0].Parent = "S99"
	if err := bad.Validate(); err == nil {
		t.Fatal("join under an unknown parent accepted")
	}

	bad = churnFig7()
	bad.Churn.Joins[0].Name = "S3"
	if err := bad.Validate(); err == nil {
		t.Fatal("join shadowing an existing resource accepted")
	}

	bad = churnFig7()
	bad.Churn.Leaves[0].Name = "S1"
	if err := bad.Validate(); err == nil {
		t.Fatal("head leave accepted")
	}

	// A rebalance-only churn section is valid: no scripted events, just
	// the load-driven planner.
	rb := churnFig7()
	rb.Churn.Joins, rb.Churn.Leaves = nil, nil
	if err := rb.Validate(); err != nil {
		t.Fatalf("rebalance-only churn rejected: %v", err)
	}
	if rb.ChurnPlan() != nil {
		t.Fatal("rebalance-only churn built a non-nil plan")
	}
	if rb.RebalancePolicy() == nil {
		t.Fatal("enabled rebalance built a nil policy")
	}
}

// TestChurnScenarioRunsClean runs the composed churn scenario through
// the scenario layer with the streaming audit and demands a clean
// verdict plus the scripted membership activity in the result.
func TestChurnScenarioRunsClean(t *testing.T) {
	res, err := Run(churnFig7(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuditOK {
		t.Fatalf("churn run failed its audit: %s", res.AuditSummary)
	}
	if res.Joins != 1 || res.Leaves != 1 {
		t.Fatalf("membership activity joins=%d leaves=%d, want 1/1", res.Joins, res.Leaves)
	}
	if res.Completed != res.Requests {
		t.Fatalf("%d of %d requests completed — churn lost work", res.Completed, res.Requests)
	}

	// Determinism through the scenario layer: a second run is identical
	// on every reported number.
	again, err := Run(churnFig7(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again.WallClock = res.WallClock
	aj, _ := json.Marshal(again)
	rj, _ := json.Marshal(res)
	if string(aj) != string(rj) {
		t.Fatalf("churn scenario not deterministic:\n first %s\nsecond %s", rj, aj)
	}
}
