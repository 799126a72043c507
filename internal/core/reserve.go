package core

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Reservation-policy defaults; see ReservationPolicy.
const (
	// DefaultReservationHoldTTL is how long a phase-one hold blocks its
	// window awaiting confirm, in simulated seconds. Within the grid the
	// shop→confirm handshake completes inside one simulator event, so the
	// TTL only matters for holds placed by external clients (the daemons)
	// or abandoned by a crashed requester.
	DefaultReservationHoldTTL = 30.0
)

// ReservationPolicy configures the advance-reservation submit path: the
// two-phase commit budget and the admission slip bound. The zero value
// selects the defaults below; the policy has no effect at all — no
// events, no state, byte-identical runs — until SubmitReservationAt is
// called.
type ReservationPolicy struct {
	// HoldTTL is the phase-one hold lifetime in simulated seconds;
	// <= 0 selects DefaultReservationHoldTTL.
	HoldTTL float64
	// MaxSlip bounds how far past the requested start the quoted common
	// window may slip before the reservation is rejected instead of
	// confirmed late; <= 0 means unbounded (any feasible window is
	// accepted).
	MaxSlip float64
	// SweepPeriod is the cadence of the expiry sweep that retires holds
	// whose TTL lapsed unconfirmed; <= 0 selects HoldTTL.
	SweepPeriod float64
}

// withDefaults resolves the zero fields.
func (p ReservationPolicy) withDefaults() ReservationPolicy {
	if p.HoldTTL <= 0 {
		p.HoldTTL = DefaultReservationHoldTTL
	}
	if p.SweepPeriod <= 0 {
		p.SweepPeriod = p.HoldTTL
	}
	return p
}

// maxSlip maps the policy's "<= 0 is unbounded" convention onto the
// agent shopper's "negative is unbounded".
func (p ReservationPolicy) maxSlip() float64 {
	if p.MaxSlip <= 0 {
		return -1
	}
	return p.MaxSlip
}

// ReservationStats counts what the reservation path did during a run.
type ReservationStats struct {
	Requested int // reservations shopped (SubmitReservationAt events)
	Confirmed int // reservations fully held and confirmed
	Rejected  int // reservations refused admission (no capacity, or slip past MaxSlip)
	Expired   int // holds retired by the TTL sweep
	Parts     int // confirmed co-allocation parts (= guaranteed-start tasks)
}

// reservist drives the reservation submit path on the simulator clock.
// It is created lazily by the first SubmitReservationAt, so a grid that
// never reserves schedules nothing and stays byte-identical.
type reservist struct {
	g     *Grid
	pol   ReservationPolicy
	stats ReservationStats

	// reserved marks the request IDs minted for confirmed reservation
	// parts, so per-class metrics can split the record stream.
	reserved map[uint64]bool

	// Instruments; all nil (and every use a no-op) without telemetry.
	cRequested *telemetry.Counter
	cConfirmed *telemetry.Counter
	cRejected  *telemetry.Counter
	cExpired   *telemetry.Counter
	// hQuote observes the wall-clock seconds each shopping round took —
	// the price of the flood quote plus the co-allocation fixed point.
	hQuote *telemetry.Histogram
	// hSlip observes, per confirmed reservation, the virtual seconds the
	// granted window starts after the requested earliest start.
	hSlip *telemetry.Histogram
}

func newReservist(g *Grid, pol ReservationPolicy) *reservist {
	r := &reservist{g: g, pol: pol.withDefaults(), reserved: map[uint64]bool{}}
	if reg := g.opts.Telemetry; reg != nil {
		r.cRequested = reg.Counter("reservations_requested_total")
		r.cConfirmed = reg.Counter("reservations_confirmed_total")
		r.cRejected = reg.Counter("reservations_rejected_total")
		r.cExpired = reg.Counter("reservations_expired_total")
		r.hQuote = reg.Histogram("reservation_quote_wall_s")
		r.hSlip = reg.Histogram("reservation_slip_s")
	}
	return r
}

// SubmitReservationAt schedules an advance-reservation request for
// virtual time at: nodes×parts nodes across parts distinct resources,
// reserved for duration seconds in a common window starting no earlier
// than startRel seconds after the request. The hierarchy is shopped for
// quotes (Fig. 6 discovery walk), the cheapest feasible common window is
// held on every part, and the holds are confirmed into guaranteed-start
// tasks — or, if no window can be granted within the policy's MaxSlip,
// everything is released and the reservation is rejected. A rejection is
// an admission outcome, not a run error: it surfaces as a fail event and
// in ReservationStats, and Run still returns nil.
//
// Each confirmed part runs as its own task with its own grid-wide
// request ID, minted here in submission order like SubmitAt's.
func (g *Grid) SubmitReservationAt(at float64, agentName, appName string, startRel, duration float64, nodes, parts int) error {
	if !g.opts.UseAgents {
		return fmt.Errorf("core: reservations require agent-based discovery (UseAgents)")
	}
	if duration <= 0 {
		return fmt.Errorf("core: non-positive reservation duration %g", duration)
	}
	if startRel < 0 {
		return fmt.Errorf("core: negative relative reservation start %g", startRel)
	}
	if nodes < 1 {
		return fmt.Errorf("core: reservation for %d nodes", nodes)
	}
	if parts < 1 {
		parts = 1
	}
	app, first, err := g.admit(at, agentName, appName, parts)
	if err != nil {
		return err
	}
	// One request ID per co-allocation part: each part becomes a distinct
	// task on a distinct resource with its own lifecycle, so each needs
	// its own join key. The first part's ID doubles as the grid-wide
	// reservation ID — unique by construction.
	reqIDs := make([]uint64, parts)
	for i := range reqIDs {
		reqIDs[i] = first + uint64(i)
	}
	if g.resv == nil {
		g.resv = newReservist(g, g.opts.Reservation)
	}
	r := g.resv
	g.simr.At(at, func(now float64) {
		g.advanceAll(now)
		r.submit(now, agentName, appName, app, startRel, duration, nodes, reqIDs)
	})
	return nil
}

// submit runs one reservation event: shop, hold, confirm — or reject.
func (r *reservist) submit(now float64, agentName, appName string, app *pace.AppModel, startRel, duration float64, nodes int, reqIDs []uint64) {
	g := r.g
	parts := len(reqIDs)
	resvID := reqIDs[0]
	r.stats.Requested++
	r.cRequested.Inc()
	g.mRequests.Inc()

	// Every part arrives — and, whatever happens next, terminates in
	// exactly one dispatch-then-complete or one fail (the conservation
	// invariant internal/audit checks).
	arrival, _, live := g.route(agentName)
	for i, id := range reqIDs {
		g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindArrive, ReqID: id, Agent: agentName, App: appName,
			Detail: fmt.Sprintf("reserved resv=%d part=%d/%d", resvID, i+1, parts),
		})
	}
	failAll := func(reason string) {
		r.stats.Rejected++
		r.cRejected.Inc()
		for _, id := range reqIDs {
			g.traceEvent(trace.Event{Time: now, Kind: trace.KindFail, ReqID: id, Agent: agentName, App: appName, Detail: reason})
		}
	}
	if !live {
		failAll(fmt.Sprintf("no live agent for reservation arrival at %s", agentName))
		return
	}

	a, _ := g.hier.Lookup(arrival)
	spec := agent.ReservationSpec{
		ResvID:   resvID,
		Holder:   agentName,
		Nodes:    nodes,
		Parts:    parts,
		Earliest: now + startRel,
		Duration: duration,
		TTL:      r.pol.HoldTTL,
		MaxSlip:  r.pol.maxSlip(),
	}
	wall := time.Now()
	held, err := a.ShopReservation(spec, now)
	r.hQuote.Observe(time.Since(wall).Seconds())
	if err != nil {
		failAll(err.Error())
		return
	}
	expiresAt := now + r.pol.HoldTTL
	for i, p := range held.Parts {
		g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindReserveHold, ReqID: reqIDs[i],
			Agent: arrival, Resource: p.Resource, App: appName,
			Detail: fmt.Sprintf("resv=%d mask=%x win=[%g,%g) exp=%g", resvID, p.Mask, held.Start, held.End, expiresAt),
		})
	}
	for i, p := range held.Parts {
		tid, err := a.ConfirmPart(p.Resource, resvID, reqIDs[i], app, now)
		if err != nil {
			// A hold that cannot be confirmed voids the whole reservation:
			// release every part (the ones already confirmed included) and
			// fail every lifecycle. This is an internal inconsistency, not
			// an admission outcome, so it also lands in the run errors.
			for _, q := range held.Parts {
				if rerr := a.ReleasePart(q.Resource, resvID, now); rerr == nil {
					g.traceEvent(trace.Event{
						Time: now, Kind: trace.KindReserveRelease, Resource: q.Resource,
						Detail: fmt.Sprintf("resv=%d", resvID),
					})
				}
			}
			failAll(fmt.Sprintf("confirm of reservation %d on %s: %v", resvID, p.Resource, err))
			g.errs = append(g.errs, fmt.Errorf("core: reservation %d: confirm on %s: %w", resvID, p.Resource, err))
			g.mErrors.Inc()
			return
		}
		g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindReserveConfirm, ReqID: reqIDs[i],
			Resource: p.Resource, TaskID: tid, App: appName,
			Detail: fmt.Sprintf("resv=%d win=[%g,%g)", resvID, held.Start, held.End),
		})
		g.recordDispatch(agent.Dispatch{Resource: p.Resource, TaskID: tid, ReqID: reqIDs[i]})
		g.traceEvent(trace.Event{
			Time: now, Kind: trace.KindDispatch, ReqID: reqIDs[i], Agent: agentName,
			Resource: p.Resource, TaskID: tid, App: appName,
			Detail: fmt.Sprintf("reserved resv=%d win=[%g,%g)", resvID, held.Start, held.End),
		})
		r.reserved[reqIDs[i]] = true
	}
	r.stats.Confirmed++
	r.cConfirmed.Inc()
	r.stats.Parts += len(held.Parts)
	r.hSlip.Observe(held.Start - spec.Earliest)
}

// sweep retires every hold whose TTL lapsed unconfirmed, making the
// expiry observable as a reserve-expire event per booking. Within the
// grid the shop→confirm handshake is atomic in virtual time, so this
// only fires for holds placed outside the submit path (tests, external
// clients driving a Local directly).
func (r *reservist) sweep(now float64) {
	g := r.g
	for _, a := range g.hier.InOrder() {
		name := a.Name()
		for _, b := range g.locals[name].ExpireReservations(now) {
			r.stats.Expired++
			r.cExpired.Inc()
			g.traceEvent(trace.Event{
				Time: now, Kind: trace.KindReserveExpire, Resource: name,
				Detail: fmt.Sprintf("resv=%d", b.ID),
			})
		}
	}
}

// ReservationStats reports what the reservation path did during the run;
// the zero value when no reservation was ever submitted.
func (g *Grid) ReservationStats() ReservationStats {
	if g.resv == nil {
		return ReservationStats{}
	}
	return g.resv.stats
}

// ReservedRequests returns the request IDs minted for confirmed
// reservation parts — the key for splitting the record stream into
// reserved and best-effort classes. Nil when no reservation confirmed.
func (g *Grid) ReservedRequests() map[uint64]bool {
	if g.resv == nil || len(g.resv.reserved) == 0 {
		return nil
	}
	out := make(map[uint64]bool, len(g.resv.reserved))
	for id := range g.resv.reserved {
		out[id] = true
	}
	return out
}
