package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// exportDoc is the machine-readable product of a gridexp invocation
// (-out results.json): whichever studies the flags selected, as numbers
// rather than tables, so downstream tooling (the capacity study)
// consumes JSON instead of scraping text.
type exportDoc struct {
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`

	Experiments []expSummary     `json:"experiments,omitempty"` // Table 2 runs 1–3
	Accuracy    []accuracyRow    `json:"accuracy,omitempty"`    // §5 prediction-noise study
	Resilience  *resilienceRow   `json:"resilience,omitempty"`  // experiment 4
	Migration   *migrationRow    `json:"migration,omitempty"`   // experiment 5
	Reservation []reservationRow `json:"reservation,omitempty"` // experiment 6
	Membership  *membershipRow   `json:"membership,omitempty"`  // experiment 7
	Scale       []scaleRow       `json:"scale,omitempty"`       // §5 scalability study

	Scenario   *scenario.Result           `json:"scenario,omitempty"`
	Sweep      *scenario.SweepReport      `json:"sweep,omitempty"`
	Saturation *scenario.SaturationResult `json:"saturation,omitempty"`
}

// expSummary is one Table 3 column plus the deadline/throughput numbers.
type expSummary struct {
	ID          int     `json:"id"`
	Label       string  `json:"label"`
	Policy      string  `json:"policy"`
	UseAgents   bool    `json:"use_agents"`
	Requests    int     `json:"requests"`
	EpsS        float64 `json:"eps_s"`
	UpsPct      float64 `json:"ups_pct"`
	BetaPct     float64 `json:"beta_pct"`
	HitRate     float64 `json:"hit_rate"`
	ThroughputS float64 `json:"throughput_s"`

	PerResource []resourceRow `json:"per_resource"`

	AuditOK *bool `json:"audit_ok,omitempty"` // present when -audit ran
}

type resourceRow struct {
	Name    string  `json:"name"`
	Tasks   int     `json:"tasks"`
	EpsS    float64 `json:"eps_s"`
	UpsPct  float64 `json:"ups_pct"`
	BetaPct float64 `json:"beta_pct"`
}

type accuracyRow struct {
	Rel     float64 `json:"rel"`
	Bias    float64 `json:"bias"`
	EpsS    float64 `json:"eps_s"`
	UpsPct  float64 `json:"ups_pct"`
	BetaPct float64 `json:"beta_pct"`
	MetRate float64 `json:"met_rate"`
}

type resilienceRow struct {
	Baseline expSummary `json:"baseline"`
	Faulted  expSummary `json:"faulted"`
	Events   int        `json:"fault_events"`
}

// migrationRow is the experiment-5 export: the degraded run with the
// migration policy off against the identical run with it on.
type migrationRow struct {
	Degraded expSummary `json:"degraded"`
	Migrated expSummary `json:"migrated"`
	Offers   int        `json:"migrate_offers"`
	Accepts  int        `json:"migrate_accepts"`
	Rejects  int        `json:"migrate_rejects"`
}

// membershipRow is the experiment-7 export: the churning flash-crowd
// run with the tree held static against the identical run with the
// load-driven rebalancer re-homing subtrees.
type membershipRow struct {
	Static  expSummary `json:"static"`
	Dynamic expSummary `json:"dynamic"`
	Joins   int        `json:"joins"`
	Leaves  int        `json:"leaves"`
	Drained int        `json:"tasks_drained"`
	Moves   int        `json:"rehome_moves"`
}

// reservationRow is one experiment-6 admission-study share: what the
// reserved class got (guarantee hit rate) against what the best-effort
// class paid (its own ε next to the grid total).
type reservationRow struct {
	Share            float64 `json:"share"`
	Requested        int     `json:"resv_requested"`
	Confirmed        int     `json:"resv_confirmed"`
	Rejected         int     `json:"resv_rejected"`
	Expired          int     `json:"resv_expired"`
	Parts            int     `json:"resv_parts"`
	GuaranteeHitRate float64 `json:"guarantee_hit_rate"`
	EpsS             float64 `json:"eps_s"`
	BestEffortEpsS   float64 `json:"be_eps_s"`
	HitRate          float64 `json:"hit_rate"`
	AuditOK          bool    `json:"audit_ok"`
}

func summariseReservation(outs []experiment.Outcome) []reservationRow {
	rows := make([]reservationRow, len(outs))
	for i, r := range outs {
		beEps, _, _ := r.BestEffort()
		rows[i] = reservationRow{
			Share:            r.Spec.Reservations.Share,
			Requested:        r.ResvRequested,
			Confirmed:        r.ResvConfirmed,
			Rejected:         r.ResvRejected,
			Expired:          r.ResvExpired,
			Parts:            r.ResvParts,
			GuaranteeHitRate: r.GuaranteeHitRate,
			EpsS:             r.Epsilon,
			BestEffortEpsS:   beEps,
			HitRate:          r.HitRate,
			AuditOK:          r.AuditOK,
		}
	}
	return rows
}

type scaleRow struct {
	Agents    int     `json:"agents"`
	Requests  int     `json:"requests"`
	MeanHops  float64 `json:"mean_hops"`
	MaxHops   int     `json:"max_hops"`
	Fallbacks int     `json:"fallbacks"`
	EpsS      float64 `json:"eps_s"`
	UpsPct    float64 `json:"ups_pct"`
	BetaPct   float64 `json:"beta_pct"`
}

// summariseOutcome exports one run; its audit verdict goes in only under
// -audit (audited), as in the printed report.
func summariseOutcome(o experiment.Outcome, audited bool) expSummary {
	s := expSummary{
		ID:          o.Setup.ID,
		Label:       o.Setup.Label,
		Policy:      string(o.Setup.Policy),
		UseAgents:   o.Setup.UseAgents,
		Requests:    o.Requests,
		EpsS:        o.Report.Total.Epsilon,
		UpsPct:      o.Report.Total.Upsilon,
		BetaPct:     o.Report.Total.Beta,
		HitRate:     o.HitRate,
		ThroughputS: o.Throughput,
	}
	for _, r := range o.Report.PerResource {
		s.PerResource = append(s.PerResource, resourceRow{
			Name: r.Name, Tasks: r.Tasks, EpsS: r.Epsilon, UpsPct: r.Upsilon, BetaPct: r.Beta,
		})
	}
	if audited {
		s.AuditOK = &o.AuditOK
	}
	return s
}

func summariseAccuracy(pts []experiment.Outcome) []accuracyRow {
	out := make([]accuracyRow, len(pts))
	for i, p := range pts {
		out[i] = accuracyRow{
			Rel: p.Spec.PredictionError, Bias: p.Spec.PredictionBias,
			EpsS: p.Epsilon, UpsPct: p.Upsilon, BetaPct: p.Beta, MetRate: p.HitRate,
		}
	}
	return out
}

func summariseScale(pts []experiment.Outcome) []scaleRow {
	out := make([]scaleRow, len(pts))
	for i, p := range pts {
		out[i] = scaleRow{
			Agents: p.Agents, Requests: p.Requests,
			MeanHops: p.MeanHops, MaxHops: p.MaxHops, Fallbacks: p.Fallbacks,
			EpsS: p.Epsilon, UpsPct: p.Upsilon, BetaPct: p.Beta,
		}
	}
	return out
}

// write renders the document as indented JSON at path (or CSV when the
// document is a sweep and the path ends in .csv).
func (d exportDoc) write(path string) error {
	if d.Sweep != nil && strings.HasSuffix(path, ".csv") {
		return writeFile(path, "results", d.Sweep.WriteCSV)
	}
	return writeFile(path, "results", indentedJSON(d))
}

// writeTelemetry renders the collected telemetry exports — one per
// instrumented run, keyed by its label — as indented JSON at path (the
// -telemetry flag).
func writeTelemetry(path string, exports map[string]*telemetry.Export) error {
	return writeFile(path, "telemetry", indentedJSON(exports))
}

// writeFile creates path, fills it, and reports what was written there.
func writeFile(path, what string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}

// indentedJSON returns a fill that encodes v as indented JSON.
func indentedJSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	}
}
