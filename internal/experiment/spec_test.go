package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// phase is the §4.1 request phase length the fault schedules scale to.
func phase(p Params) float64 { return float64(p.Requests) * p.Interval }

// runStudy runs a study through RunStudy, failing the test on error.
func runStudy(t testing.TB, runs []Run, opt scenario.RunOptions) []Outcome {
	t.Helper()
	outs, err := RunStudy(runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestScenarioReproducesCaseStudy pins the Table 2 configurations to
// the scenario engine: each is scenario.Fig7() with its policy and
// discovery switch, and experiment 3 at DefaultParams is scenario.Fig7()
// itself. Both sides run through scenario.Run, so an equal spec is an
// equal run; CI's golden diff against casestudy_output.txt holds Table
// 3's bytes.
func TestScenarioReproducesCaseStudy(t *testing.T) {
	p := DefaultParams()
	if got := p.caseStudy(Configs[2]); !reflect.DeepEqual(got, scenario.Fig7()) {
		t.Fatalf("experiment 3 is not scenario.Fig7():\n got %+v\nwant %+v", got, scenario.Fig7())
	}
	for _, s := range Configs {
		t.Run(s.Label, func(t *testing.T) {
			got := p.caseStudy(s)
			if got.Policy != string(s.Policy) || got.AgentsEnabled() != s.UseAgents {
				t.Fatalf("spec runs policy %q, agents %v", got.Policy, got.AgentsEnabled())
			}
			got.Policy, got.UseAgents = scenario.Fig7().Policy, nil
			if !reflect.DeepEqual(got, scenario.Fig7()) {
				t.Fatalf("experiment %d differs from scenario.Fig7() beyond policy and discovery:\n%+v", s.ID, got)
			}
		})
	}
}

// TestStudySpecsAreScenarioFiles holds every study to the scenario file
// format: each spec a study runs — both sides of every off/on pair,
// every accuracy case and scale size — encodes to JSON that decodes
// under the loader's strictness, validates, and equals the original.
func TestStudySpecsAreScenarioFiles(t *testing.T) {
	p := DefaultParams()
	var runs []Run
	// Experiment 4's baseline is experiment 3, which CaseStudyRuns holds.
	for _, study := range [][]Run{
		p.ResilienceRuns(ScaledFaultPlan(phase(p)))[1:],
		p.CaseStudyRuns(),
		p.MigrationRuns(ScaledDegradedPlan(phase(p)), DefaultMigrationPolicy()),
		p.ReservationRuns(DefaultReservationShares()),
		p.MembershipRuns(DefaultChurnPlan(), DefaultRebalancePolicy()),
		p.AccuracyRuns(DefaultNoiseCases()),
		p.ScaleRuns([]int{6, 12, 24, 48}, 3, 50),
		QuickParams().CaseStudyRuns()[1:2],
	} {
		runs = append(runs, study...)
	}

	for i, r := range runs {
		spec := r.Spec
		t.Run(fmt.Sprintf("%d_%s", i, spec.Name), func(t *testing.T) {
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var got scenario.Spec
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s does not decode: %v", data, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s does not validate: %v", data, err)
			}
			if !reflect.DeepEqual(got, spec) {
				t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
			}
		})
	}
}
