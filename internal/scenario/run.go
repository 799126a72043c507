package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reservationPickSalt decorrelates the reservation-diversion RNG from
// the workload generator (both streams are derived from the run seed).
const reservationPickSalt = 0x9e3779b97f4a7c15

// RunOptions carries the knobs that belong to the host, not the
// experiment: they may change wall-clock time but never results.
type RunOptions struct {
	// Workers bounds the GA cost-evaluation goroutines per scheduler;
	// results are bit-identical for any value (PR 2's contract).
	Workers int
	// Trace, when set, receives the full request lifecycle (the caller
	// wants an export). The audit no longer needs it: every run streams
	// its lifecycle into an audit.Observer directly, so without Trace no
	// history is retained at all. A retaining recorder must be sized for
	// at least 8×Count+64 events — Run refuses an undersized ring loudly
	// rather than exporting a silently truncated trace; stream through a
	// trace.CSVSink with retention off for unbounded runs.
	Trace *trace.Recorder
	// Telemetry instruments the run on a fresh registry and attaches the
	// final snapshot plus the virtual-time series to Result.Telemetry.
	// Observing only: results are byte-identical with it on or off.
	Telemetry bool
	// SamplePeriod is the series sampling period in virtual seconds;
	// <= 0 defaults to core's 10 s. Ignored without Telemetry.
	SamplePeriod float64
}

// Result is one scenario run, reduced to the numbers a study compares:
// the §3.3 grid and per-resource metrics, deadline behaviour, throughput
// and the audit verdict.
type Result struct {
	Name      string  `json:"name,omitempty"`
	Seed      uint64  `json:"seed"`
	Agents    int     `json:"agents"`
	Requests  int     `json:"requests"`  // submitted
	Completed int     `json:"completed"` // execution records
	Span      float64 `json:"span_s"`    // request phase length (last arrival), virtual seconds

	Epsilon float64 `json:"eps_s"`    // §3.3 ε, seconds
	Upsilon float64 `json:"ups_pct"`  // §3.3 υ, percent
	Beta    float64 `json:"beta_pct"` // §3.3 β, percent

	HitRate    float64 `json:"hit_rate"`     // fraction of tasks meeting their deadline
	SlackP50   float64 `json:"slack_p50_s"`  // makespan-slack (δ − η) percentiles, seconds
	SlackP95   float64 `json:"slack_p95_s"`  // (p95/p99 of the *shortfall* tail: lower percentiles
	SlackP99   float64 `json:"slack_p99_s"`  // of advance, i.e. the worst 5% and 1% of tasks)
	Throughput float64 `json:"throughput_s"` // completions per virtual second

	MeanHops  float64 `json:"mean_hops"` // discovery locality (agent runs only)
	MaxHops   int     `json:"max_hops"`
	Fallbacks int     `json:"fallbacks"`

	// Migration-policy activity (zero unless the spec enables migration).
	MigrateOffers  int `json:"migrate_offers,omitempty"`
	MigrateAccepts int `json:"migrate_accepts,omitempty"`
	MigrateRejects int `json:"migrate_rejects,omitempty"`

	// Dynamic-membership activity (zero unless the spec scripts churn or
	// enables the rebalancer).
	Joins   int `json:"joins,omitempty"`
	Leaves  int `json:"leaves,omitempty"`
	Drained int `json:"drained,omitempty"`
	Moves   int `json:"rehome_moves,omitempty"`

	// Reservation admission and guarantee behaviour (zero unless the spec
	// reserves a share of the traffic).
	ResvRequested int `json:"resv_requested,omitempty"`
	ResvConfirmed int `json:"resv_confirmed,omitempty"`
	ResvRejected  int `json:"resv_rejected,omitempty"`
	ResvExpired   int `json:"resv_expired,omitempty"`
	ResvParts     int `json:"resv_parts,omitempty"`
	// GuaranteeHitRate is the fraction of confirmed reservation parts that
	// finished inside their booked window (reserved records carry the
	// window end as their deadline, so this is their deadline-hit rate).
	GuaranteeHitRate float64 `json:"guarantee_hit_rate,omitempty"`
	// Per-class §3.3 metrics: the best-effort traffic alone, so admission
	// studies can read the degradation reservations impose on it.
	BestEffortEpsilon float64 `json:"be_eps_s,omitempty"`
	BestEffortUpsilon float64 `json:"be_ups_pct,omitempty"`
	BestEffortBeta    float64 `json:"be_beta_pct,omitempty"`

	WallClock float64 `json:"wall_clock_s"` // host seconds, informational only
	SimEvents uint64  `json:"sim_events"`   // simulator events executed (throughput numerator)

	AuditOK         bool   `json:"audit_ok"`
	AuditViolations int    `json:"audit_violations"`
	AuditSummary    string `json:"audit_summary"`

	// PerResource is the §3.3 row of every resource (Report.PerResource):
	// the data behind the Table 3 columns and the Figs. 8–10 series.
	PerResource []metrics.Report `json:"per_resource"`

	// Telemetry is the final registry snapshot plus the virtual-time
	// series, present only when RunOptions.Telemetry was set. It has its
	// own export (gridexp -telemetry), so it is not part of the result.
	Telemetry *telemetry.Export `json:"-"`

	// Run detail for the reports that print more than the numbers above
	// (Table 3, the dispatch and per-application summaries, the fault
	// and migration bookkeeping); none of it is part of the result file.
	Report          metrics.GridReport `json:"-"` // full per-resource detail
	Audit           *audit.Result      `json:"-"`
	Records         []scheduler.Record `json:"-"`
	Dispatches      []agent.Dispatch   `json:"-"`
	Fault           fault.Stats        `json:"-"`
	MigrateChecks   int                `json:"-"` // drift checks with a measurable signal
	MigrateBreaches int                `json:"-"` // checks whose drift exceeded the threshold
}

// Run executes one scenario under its own seed (a sweep point carries
// its split-derived seed in Spec.Seed). The lifecycle auditor runs on
// every scenario run — generated topologies and open arrival processes
// are exactly where a conservation or exclusivity bug would hide, so no
// scenario result is reported without its audit verdict.
func Run(spec Spec, opt RunOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()

	resources, err := spec.Topology.Build()
	if err != nil {
		return Result{}, err
	}
	names := spec.EntryAgents
	if len(names) == 0 {
		names = make([]string, len(resources))
		for i, r := range resources {
			names[i] = r.Name
		}
	}
	policy, err := core.ParsePolicy(spec.Policy)
	if err != nil {
		return Result{}, err
	}
	rec := opt.Trace
	if rec != nil && rec.Retaining() {
		if need := 8*spec.Arrivals.Count + 64; rec.Capacity() < need {
			return Result{}, fmt.Errorf(
				"scenario %q: trace ring capacity %d cannot retain a %d-request run (need %d events); size the ring for the spec or stream with retention off",
				spec.Name, rec.Capacity(), spec.Arrivals.Count, need)
		}
	}
	// The audit streams: every lifecycle event, execution record and
	// dispatch feeds the observer as it happens, and the post-advance
	// watermark lets it retire finished requests — O(in-flight) memory
	// where the old end-of-run audit.Check retained the whole run.
	// Runtime joiners execute work too; the audit must know their node
	// counts or their records read as "unknown resource".
	obs := audit.NewObserver(core.NodeCounts(resources, spec.ChurnPlan()))
	copts := core.Options{
		Policy:          policy,
		GA:              spec.GAConfig(),
		Workers:         opt.Workers,
		UseAgents:       spec.AgentsEnabled(),
		Seed:            spec.Seed,
		PredictionError: spec.PredictionError,
		PredictionBias:  spec.PredictionBias,
		Trace:           rec,
		Audit:           obs,
		FaultPlan:       spec.FaultPlan(),
		AdvertTTL:       spec.AdvertTTL,
		Migration:       spec.MigrationPolicy(),
		Reservation:     spec.ReservationPolicy(),
		Churn:           spec.ChurnPlan(),
		Rebalance:       spec.RebalancePolicy(),
	}
	if opt.Telemetry {
		// Each run gets a fresh registry: sweep points run concurrently
		// and their totals must not bleed into each other.
		copts.Telemetry = telemetry.NewRegistry()
		copts.SamplePeriod = opt.SamplePeriod
	}
	grid, err := core.New(resources, copts)
	if err != nil {
		return Result{}, err
	}

	proc, err := spec.Arrivals.BuildProcess()
	if err != nil {
		return Result{}, err
	}
	reqs, err := workload.Generate(workload.Spec{
		Seed:          spec.Seed,
		Count:         spec.Arrivals.Count,
		AgentNames:    names,
		Library:       grid.Library(),
		Arrivals:      proc,
		AppWeights:    spec.AppWeights,
		DeadlineScale: spec.DeadlineScale,
	})
	if err != nil {
		return Result{}, err
	}
	if rs := spec.Reservations; rs != nil && rs.Share > 0 {
		// The diversion draws from its own salted RNG stream: the requests
		// that stay best-effort are submitted exactly as a share-0 run
		// submits them, and raising the share only removes requests from
		// that stream, never perturbs it.
		shape := rs.reservationDefaults()
		pick := sim.NewRNG(spec.Seed ^ reservationPickSalt)
		for _, r := range reqs {
			if pick.Bool(rs.Share) {
				err = grid.SubmitReservationAt(r.At, r.AgentName, r.AppName, shape.Lead, shape.Duration, shape.Nodes, shape.Parts)
			} else {
				err = grid.SubmitAt(r.At, r.AgentName, r.AppName, r.DeadlineRel)
			}
			if err != nil {
				return Result{}, err
			}
		}
	} else if err := grid.SubmitWorkload(reqs); err != nil {
		return Result{}, err
	}
	if err := grid.Run(); err != nil {
		return Result{}, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}

	span := workload.Summarise(reqs).Span
	// The measurement window floor is the request phase. Under fixed
	// intervals the phase is Count×Interval — the §4.1 definition, which
	// Table 3 is measured over — while open arrival processes only know
	// the last arrival time.
	minWindow := span
	if f, ok := proc.(workload.FixedInterval); ok {
		minWindow = float64(len(reqs)) * f.Interval
	}
	recs := grid.Records()
	disp := grid.Dispatches()
	report, err := grid.MetricsOver(recs, minWindow)
	if err != nil {
		return Result{}, err
	}
	// The observer saw the complete stream regardless of any trace-ring
	// eviction, so the audit is never truncated by the ring; a lossy CSV
	// export surfaces in the file's own trailer row instead.
	res := obs.Finish(report, 0)

	out := Result{
		Name:      spec.Name,
		Seed:      spec.Seed,
		Agents:    len(resources),
		Requests:  len(reqs),
		Completed: len(recs),
		Span:      span,

		Epsilon: report.Total.Epsilon,
		Upsilon: report.Total.Upsilon,
		Beta:    report.Total.Beta,

		HitRate:    metrics.HitRate(recs),
		Throughput: metrics.Throughput(recs, report.Window),

		WallClock: time.Since(start).Seconds(),
		SimEvents: grid.SimEvents(),

		AuditOK:         res.OK(),
		AuditViolations: len(res.Violations),
		AuditSummary:    res.Summary(),

		PerResource: report.PerResource,

		Report:     report,
		Audit:      &res,
		Records:    recs,
		Dispatches: disp,
		Fault:      grid.FaultStats(),
	}
	out.Telemetry = grid.TelemetryExport()
	if len(recs) > 0 {
		slack := make([]float64, len(recs))
		for i, r := range recs {
			slack[i] = r.Deadline - r.End
		}
		// The operator question is "how bad is the tail": p95/p99 here
		// are the 5th and 1st percentiles of slack — the worst-off tasks
		// — so a saturating grid shows them going negative first.
		ps := metrics.Percentiles(slack, 0.50, 0.05, 0.01)
		out.SlackP50, out.SlackP95, out.SlackP99 = ps[0], ps[1], ps[2]
	}
	var hops int
	for _, d := range disp {
		hops += d.Hops
		if d.Hops > out.MaxHops {
			out.MaxHops = d.Hops
		}
		if d.Fallback {
			out.Fallbacks++
		}
	}
	if n := len(disp); n > 0 {
		out.MeanHops = float64(hops) / float64(n)
	}
	ms := grid.MigrationStats()
	out.MigrateOffers, out.MigrateAccepts, out.MigrateRejects = ms.Offers, ms.Accepts, ms.Rejects
	out.MigrateChecks, out.MigrateBreaches = ms.Checks, ms.Breaches
	mbs := grid.MembershipStats()
	out.Joins, out.Leaves, out.Drained, out.Moves = mbs.Joins, mbs.Leaves, mbs.Drained, mbs.Moves
	rs := grid.ReservationStats()
	out.ResvRequested, out.ResvConfirmed, out.ResvRejected = rs.Requested, rs.Confirmed, rs.Rejected
	out.ResvExpired, out.ResvParts = rs.Expired, rs.Parts
	if reserved := grid.ReservedRequests(); len(reserved) > 0 {
		var resvRecs, beRecs []scheduler.Record
		for _, r := range recs {
			if reserved[r.ReqID] {
				resvRecs = append(resvRecs, r)
			} else {
				beRecs = append(beRecs, r)
			}
		}
		out.GuaranteeHitRate = metrics.HitRate(resvRecs)
		if len(beRecs) > 0 {
			beReport, err := grid.MetricsOver(beRecs, minWindow)
			if err != nil {
				return Result{}, err
			}
			out.BestEffortEpsilon = beReport.Total.Epsilon
			out.BestEffortUpsilon = beReport.Total.Upsilon
			out.BestEffortBeta = beReport.Total.Beta
		}
	}
	return out, nil
}

// FormatResult renders one scenario run for the terminal.
func FormatResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %s (seed %d): %d agents, %d requests, %d completed over %.0f s (%.1f s wall)\n",
		r.Name, r.Seed, r.Agents, r.Requests, r.Completed, r.Span, r.WallClock)
	fmt.Fprintf(&b, "  eps %+.1f s   ups %.1f %%   beta %.1f %%\n", r.Epsilon, r.Upsilon, r.Beta)
	fmt.Fprintf(&b, "  deadline-hit %.1f %%   slack p50/p95/p99 %+.1f/%+.1f/%+.1f s   throughput %.2f /s\n",
		r.HitRate*100, r.SlackP50, r.SlackP95, r.SlackP99, r.Throughput)
	if r.MaxHops > 0 || r.Fallbacks > 0 {
		fmt.Fprintf(&b, "  discovery: %.2f mean hops, %d max, %d fallbacks\n", r.MeanHops, r.MaxHops, r.Fallbacks)
	}
	if r.MigrateOffers > 0 {
		fmt.Fprintf(&b, "  migration: %d offers, %d accepted, %d rejected\n", r.MigrateOffers, r.MigrateAccepts, r.MigrateRejects)
	}
	if r.Joins+r.Leaves+r.Moves > 0 {
		fmt.Fprintf(&b, "  membership: %d joins, %d leaves (%d tasks drained), %d rehome moves\n",
			r.Joins, r.Leaves, r.Drained, r.Moves)
	}
	if r.ResvRequested > 0 {
		fmt.Fprintf(&b, "  reservations: %d requested, %d confirmed (%d parts), %d rejected, %d expired   guarantee-hit %.1f %%\n",
			r.ResvRequested, r.ResvConfirmed, r.ResvParts, r.ResvRejected, r.ResvExpired, r.GuaranteeHitRate*100)
		fmt.Fprintf(&b, "  best-effort class: eps %+.1f s   ups %.1f %%   beta %.1f %%\n",
			r.BestEffortEpsilon, r.BestEffortUpsilon, r.BestEffortBeta)
	}
	fmt.Fprintf(&b, "  %s\n", r.AuditSummary)
	return b.String()
}
