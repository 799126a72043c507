// Package audit is the lifecycle invariant checker for a completed grid
// run: it consumes the trace event ring, the execution records and the
// dispatch log and proves — rather than assumes — that the run's
// bookkeeping is consistent. Simulation toolkits earn trust by validating
// conservation and timing invariants over every run; this package plays
// that role for the reproduction, keyed on the grid-wide request identity
// minted at arrival (core.SubmitAt) so that lifecycle stages on different
// resources can be joined at all.
//
// The invariants:
//
//	(a) conservation — every arrival terminates in exactly one complete
//	    or exactly one fail; re-dispatch chains net to exactly one
//	    execution record. Migration chains obey the same conservation:
//	    every migrate-withdraw is preceded by a migrate-offer and
//	    followed by exactly one migrate-redispatch, so an offered task
//	    is never lost (withdrawn without re-placement) and never
//	    duplicated (re-placed without withdrawal).
//	(b) exclusivity — no two committed records overlap on the same
//	    physical node of one resource.
//	(c) timing — start ≥ arrival and end ≥ start per record, and each
//	    request's event times are monotone along its lifecycle.
//	(d) placement — the dispatch (or final re-dispatch) target is the
//	    resource that actually executed the task.
//	(e) metrics — an independent recomputation of the §3.3 ε/υ/β matches
//	    the report produced by metrics.Compute.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/trace"
)

// Run is everything the auditor sees of one completed grid run.
type Run struct {
	Events     []trace.Event      // the full lifecycle trace, in record order
	Records    []scheduler.Record // committed executions across the grid
	Dispatches []agent.Dispatch   // where each request initially landed
	Nodes      map[string]int     // node count per resource
	Report     metrics.GridReport // the §3.3 report computed for the run
	Dropped    uint64             // events evicted from the trace ring
}

// Violation is one broken invariant.
type Violation struct {
	Check  string // "conservation", "exclusivity", "timing", "placement", "metrics", "identity", "trace", "reservation", "membership", "crash"
	ReqID  uint64 // the request involved, when the violation is request-scoped
	Detail string
}

func (v Violation) String() string {
	if v.ReqID != 0 {
		return fmt.Sprintf("%s: req %d: %s", v.Check, v.ReqID, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// Counts summarises what the auditor verified.
type Counts struct {
	Requests     int // distinct request IDs observed
	Arrives      int
	Dispatches   int // initial placements (dispatch events)
	Redispatches int
	Completes    int
	Fails        int
	Records      int // execution records

	// Migration-chain events (core.MigrationPolicy): offers made,
	// accepted offers (withdrawals from the origin queue) and the
	// re-dispatches completing each chain.
	MigrateOffers       int
	MigrateWithdraws    int
	MigrateRedispatches int

	// Reservation-booking events (core.SubmitReservationAt / the expiry
	// sweep): two-phase commit stages per booking per resource.
	ReserveHolds    int
	ReserveConfirms int
	ReserveReleases int
	ReserveExpires  int

	// Dynamic-membership events (core.Options.Churn / Rebalance): runtime
	// joins, graceful leaves, rebalance proposals and the completed
	// detach→attach chains.
	Joins          int
	Leaves         int
	RehomeProposes int
	Rehomes        int
}

// Result is the auditor's verdict over one run.
type Result struct {
	Violations []Violation
	Counts     Counts
	// Truncated reports that the trace ring evicted events: conservation
	// cannot be proven over a partial trace, and a violation is raised.
	Truncated bool
}

// OK reports whether every invariant held.
func (r Result) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the audit passed, or an error carrying the first
// violations otherwise.
func (r Result) Err() error {
	if r.OK() {
		return nil
	}
	n := len(r.Violations)
	if n > 5 {
		n = 5
	}
	lines := make([]string, 0, n)
	for _, v := range r.Violations[:n] {
		lines = append(lines, v.String())
	}
	return fmt.Errorf("audit: %d violation(s): %s", len(r.Violations), strings.Join(lines, "; "))
}

// Summary renders a one-line account of the audit.
func (r Result) Summary() string {
	c := r.Counts
	s := fmt.Sprintf("audit: %d requests: %d arrives, %d completes, %d fails, %d redispatches, %d records",
		c.Requests, c.Arrives, c.Completes, c.Fails, c.Redispatches, c.Records)
	if c.MigrateOffers > 0 {
		s += fmt.Sprintf(", %d migrate offers (%d accepted)", c.MigrateOffers, c.MigrateWithdraws)
	}
	if c.ReserveHolds > 0 {
		s += fmt.Sprintf(", %d reservation holds (%d confirmed, %d released, %d expired)",
			c.ReserveHolds, c.ReserveConfirms, c.ReserveReleases, c.ReserveExpires)
	}
	if c.Joins+c.Leaves+c.RehomeProposes > 0 {
		s += fmt.Sprintf(", %d joins, %d leaves, %d rehomes", c.Joins, c.Leaves, c.Rehomes)
	}
	if r.Truncated {
		s += ", trace truncated"
	}
	s += fmt.Sprintf("; %d violation(s)", len(r.Violations))
	return s
}

// Check audits a completed run against invariants (a)–(e). It is a
// replay wrapper over the streaming Observer — the same folded checks,
// fed the whole run at once — so batch callers and the live grid
// exercise one implementation. Replay keeps per-request state to the
// end (no early retirement): a malformed trace with events after a
// terminal is judged with the full lifecycle in view, as before.
func Check(run Run) Result {
	o := NewObserver(run.Nodes)
	o.retire = false
	for _, rec := range run.Records {
		o.ObserveRecord(rec)
	}
	for _, d := range run.Dispatches {
		o.ObserveDispatch(d)
	}
	for _, ev := range run.Events {
		o.Observe(ev)
	}
	return o.Finish(run.Report, run.Dropped)
}
