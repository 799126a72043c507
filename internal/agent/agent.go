// Package agent implements the agent-based grid load-balancing layer of
// §3: a hierarchy of homogeneous agents, each representing one local grid
// resource as a service provider. Agents advertise service information to
// their neighbours (periodic pull, §4.1) and cooperate to discover a
// resource expected to meet each incoming task's deadline, dispatching the
// request there (eq. 10 matchmaking). Discovery is deliberately local:
// most requests settle in their neighbourhood, which is what lets the
// scheme scale without a central bottleneck (§3.1).
package agent

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

// Request is a task execution request travelling through the hierarchy —
// the in-process form of the Fig. 6 message. Visited accumulates the
// agents that have already evaluated the request so stale advertisement
// data cannot produce routing loops (a mechanism the paper leaves
// unspecified).
type Request struct {
	// ReqID is the grid-wide request identity minted at arrival
	// (core.SubmitAt). It travels with the request through every
	// forward, escalation, fallback and re-dispatch, and ends up on the
	// execution record of whichever scheduler finally runs the task.
	ReqID    uint64
	App      *pace.AppModel
	Env      string
	Deadline float64 // absolute virtual time δ_r
	Email    string
	Visited  []string
}

// visited reports whether name already evaluated this request.
func (r *Request) visited(name string) bool { return slices.Contains(r.Visited, name) }

// Dispatch reports where a request ended up.
type Dispatch struct {
	Resource string  // resource/agent name that accepted the task
	TaskID   int     // scheduler-local task ID on the accepting scheduler
	ReqID    uint64  // grid-wide request identity carried by the request
	Eta      float64 // η_r estimate at dispatch time (eq. 10)
	Hops     int     // agents traversed, 0 = accepted at first agent
	Fallback bool    // true when no resource met the deadline (best effort)
}

// Stats is a point-in-time snapshot of the agent's activity counters.
type Stats struct {
	Received       int // requests evaluated at this agent
	LocalAccept    int // requests submitted to the local scheduler
	Forwarded      int // requests sent to a matched neighbour
	Escalated      int // requests pushed to the upper agent with no match
	Fallbacks      int // head-of-hierarchy best-effort dispatches
	Pulls          int // advertisement pulls performed
	PushesSent     int // event-triggered advertisements sent to neighbours
	PushesReceived int // advertisements received by push
	FailedPulls    int // per-neighbour pull attempts that errored
	Redispatches   int // tasks this agent re-placed after a resource failed
}

// statCounters holds the live counters behind Stats as atomic telemetry
// instruments. The agent itself is not safe for concurrent use, but its
// counters are read from other goroutines — the networked node serves
// Stats() to monitoring while its pull/tick loops drive the agent, and
// a telemetry registry scrapes them live — so they must be atomic.
type statCounters struct {
	received       telemetry.Counter
	localAccept    telemetry.Counter
	forwarded      telemetry.Counter
	escalated      telemetry.Counter
	fallbacks      telemetry.Counter
	pulls          telemetry.Counter
	pushesSent     telemetry.Counter
	pushesReceived telemetry.Counter
	failedPulls    telemetry.Counter
	redispatches   telemetry.Counter

	breakerTrips telemetry.Counter // health transitions: circuits opened
	breakersOpen telemetry.Gauge   // circuits currently open
}

// Gate models the network between agents: an optional hook consulted
// before every peer exchange (pull, push, forward, direct submit). A
// non-nil error means the exchange fails without reaching the peer —
// the in-process analogue of a dead daemon or a severed link, which is
// how internal/fault injects failures into the simulated grid.
type Gate interface {
	// ExchangeErr reports whether an exchange from one agent to another
	// can proceed at virtual time now.
	ExchangeErr(from, to string, now float64) error
	// AgentDown reports whether the named agent is crashed: it neither
	// pulls nor publishes in Hierarchy.PullAll.
	AgentDown(name string) bool
}

// AdvertSink is implemented by peers that accept pushed advertisements
// (§3.1: "service information can be pushed to or pulled from other
// agents"). In-process agents implement it directly; remote peers carry
// the push as a Fig. 5 message over the wire.
type AdvertSink interface {
	PushAdvertisement(from string, info scheduler.ServiceInfo, now float64) error
}

// Peer is a neighbouring agent as seen from one side of an advertisement
// or discovery exchange. In a single process peers are *Agent values; in
// the networked deployment (cmd/gridagent) they are TCP stubs speaking the
// Fig. 5/6 XML formats.
type Peer interface {
	// PeerName identifies the neighbour.
	PeerName() string
	// PullService returns the neighbour's current advertisement (Fig. 5).
	PullService() (scheduler.ServiceInfo, error)
	// Handle runs service discovery for the request at the neighbour.
	Handle(req Request, now float64) (Dispatch, error)
	// SubmitDirect bypasses discovery and queues the task on the
	// neighbour's local scheduler (used by the head's fallback, where
	// discovery has already failed once).
	SubmitDirect(req Request, now float64) (Dispatch, error)
}

// peerSlot is all the agent's state for one neighbour: the peer, its
// entry in the service-information set — the advertisement, its pull (or
// push) time and the PACE column of the advertised hardware — and its
// circuit breaker. Slots live in Agent.slots in discovery order, so a
// discovery step reads them in place and hashes no name.
type peerSlot struct {
	peer Peer
	name string // peer.PeerName(), read once at link time

	cached   bool // info holds an advertisement
	info     scheduler.ServiceInfo
	pulledAt float64
	col      *pace.Column // info.HWType's column; nil for unknown hardware

	consecFails int
	tripped     bool

	// unlinked marks a slot dropped from Agent.slots. A networked node
	// releases its lock for each exchange, so an exchange can return after
	// its peer was unlinked; the slot is then no longer the agent's and
	// the outcome is dropped with it.
	unlinked bool
}

// Agent is one node of the hierarchy. Each agent fronts exactly one local
// scheduler ("each agent represents a local grid resource", §1) and knows
// only its upper and lower neighbours.
//
// Agents are driven in virtual time by their caller and are not safe for
// concurrent use.
type Agent struct {
	name   string
	local  *scheduler.Local
	engine *pace.Engine

	// upper is the upper neighbour, nil at the head. slots holds every
	// neighbour's state in discovery order: the upper first, then the
	// lowers in link order — ties in discovery go to the first. A slot is
	// made at link time and dropped at unlink; the slice is only ever
	// appended to in place, and rebuilt on any other change, so a loop
	// over it survives a membership change mid-exchange.
	upper Peer
	slots []*peerSlot

	// PullPeriod is the advertisement refresh interval; the case study
	// uses ten seconds (§4.1).
	PullPeriod float64

	// PushThreshold is the freetime change (seconds) that triggers an
	// event-driven advertisement push; see MaybePush. The §3.1 push
	// strategy trades messages for freshness against the periodic pull.
	PushThreshold float64

	// FailureThreshold is the number of consecutive failed exchanges
	// with one peer after which that peer's circuit trips: discovery and
	// fallback skip it until a successful probe (the periodic pull keeps
	// probing tripped peers) resets the breaker.
	FailureThreshold int

	// AdvertTTL is the maximum age (seconds) of a cached advertisement
	// before discovery stops trusting it — a dead neighbour's stale
	// freetime must not keep attracting dispatches. 0 means
	// advertisements never expire (the paper's behaviour).
	AdvertTTL float64

	// pushed holds advertisements pushed by senders that are not linked
	// (yet), in arrival order; a peer linked under such a name adopts its
	// advertisement.
	pushed []*peerSlot

	stats statCounters
	gate  Gate

	lastPushedFreetime float64
	pushedOnce         bool

	// advert is the agent's base advertisement as of the current
	// Hierarchy.PullAll tick, valid while advertLive.
	advert     scheduler.ServiceInfo
	advertLive bool
}

// DefaultPushThreshold is the freetime delta that triggers a push.
const DefaultPushThreshold = 5.0

// DefaultPullPeriod is the §4.1 advertisement interval in seconds.
const DefaultPullPeriod = 10.0

// DefaultFailureThreshold trips a peer's circuit after this many
// consecutive failed exchanges.
const DefaultFailureThreshold = 3

// New creates an agent fronting the given local scheduler. The agent and
// scheduler names must match: the agent is the resource's representative.
func New(local *scheduler.Local, engine *pace.Engine) (*Agent, error) {
	if local == nil {
		return nil, fmt.Errorf("agent: nil local scheduler")
	}
	if engine == nil {
		return nil, fmt.Errorf("agent: nil PACE engine")
	}
	return &Agent{
		name:             local.Name(),
		local:            local,
		engine:           engine,
		PullPeriod:       DefaultPullPeriod,
		PushThreshold:    DefaultPushThreshold,
		FailureThreshold: DefaultFailureThreshold,
	}, nil
}

// SetGate installs the exchange gate consulted before every peer call.
func (a *Agent) SetGate(g Gate) { a.gate = g }

// down reports whether the agent's gate holds it crashed.
func (a *Agent) down() bool { return a.gate != nil && a.gate.AgentDown(a.name) }

// gateErr asks the gate (when present) whether an exchange with the
// named peer can proceed.
func (a *Agent) gateErr(to string, now float64) error {
	if a.gate == nil {
		return nil
	}
	return a.gate.ExchangeErr(a.name, to, now)
}

// slotOf returns the slot of the first neighbour with the given name, or
// nil when no such peer is linked.
func (a *Agent) slotOf(name string) *peerSlot {
	for _, s := range a.slots {
		if s.name == name {
			return s
		}
	}
	return nil
}

// upperSlot returns the upper neighbour's slot, nil at the head.
func (a *Agent) upperSlot() *peerSlot {
	if a.upper == nil {
		return nil
	}
	return a.slots[0]
}

// lowerSlots returns the lower neighbours' slots, in link order.
func (a *Agent) lowerSlots() []*peerSlot {
	if a.upper == nil {
		return a.slots
	}
	return a.slots[1:]
}

// link gives p a slot — first as the upper neighbour, last as a lower
// one — adopting the advertisement p pushed before it was linked, if any.
func (a *Agent) link(p Peer, upper bool) {
	s := &peerSlot{peer: p, name: p.PeerName()}
	for i, q := range a.pushed {
		if q.name == s.name {
			s.cached, s.info, s.pulledAt, s.col = true, q.info, q.pulledAt, q.col
			a.pushed = slices.Delete(a.pushed, i, i+1)
			break
		}
	}
	if upper {
		a.upper = p
		a.slots = append([]*peerSlot{s}, a.slots...)
		return
	}
	a.slots = append(a.slots, s)
}

// unlink drops slot i with its advertisement and breaker. The slice is
// rebuilt, not shifted, so a loop over the old one stays consistent.
func (a *Agent) unlink(i int) {
	s := a.slots[i]
	a.reset(s)
	s.unlinked = true
	if i == 0 && a.upper != nil {
		a.upper = nil
	}
	a.slots = slices.Concat(a.slots[:i], a.slots[i+1:])
}

// reset empties a slot: no advertisement, a closed breaker.
func (a *Agent) reset(s *peerSlot) {
	if s.tripped {
		a.stats.breakersOpen.Add(-1)
	}
	*s = peerSlot{peer: s.peer, name: s.name}
}

// store records info as s's advertisement at now, resolving the PACE
// column of the advertised hardware only when it changes; unknown
// hardware leaves no column, and discovery skips the advertisement.
func (a *Agent) store(s *peerSlot, info scheduler.ServiceInfo, now float64) {
	if !s.cached || info.HWType != s.info.HWType {
		s.col = nil
		if hw, ok := pace.LookupHardware(info.HWType); ok {
			s.col, _ = a.engine.Column(hw)
		}
	}
	s.cached, s.info, s.pulledAt = true, info, now
}

// peerFailed counts one failed exchange with s, tripping its circuit at
// FailureThreshold consecutive failures. It reports whether this failure
// newly tripped the breaker.
func (a *Agent) peerFailed(s *peerSlot) bool {
	if s.unlinked {
		return false
	}
	s.consecFails++
	threshold := a.FailureThreshold
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	if !s.tripped && s.consecFails >= threshold {
		s.tripped = true
		a.stats.breakerTrips.Inc()
		a.stats.breakersOpen.Add(1)
		return true
	}
	return false
}

// peerSucceeded resets s's failure streak, closing a tripped circuit. It
// reports whether a tripped breaker was reset.
func (a *Agent) peerSucceeded(s *peerSlot) bool {
	if s.unlinked {
		return false
	}
	was := s.tripped
	s.consecFails = 0
	s.tripped = false
	if was {
		a.stats.breakersOpen.Add(-1)
	}
	return was
}

// RecordPeerFailure counts one failed exchange with the named neighbour,
// tripping its circuit at FailureThreshold consecutive failures. It
// reports whether this failure newly tripped the breaker. Every exchange
// the agent performs is counted through recordExchange; the method is
// exported for drivers that learn of a dead peer some other way. A name
// that is not linked has no breaker, and nothing is recorded.
func (a *Agent) RecordPeerFailure(name string) bool {
	s := a.slotOf(name)
	return s != nil && a.peerFailed(s)
}

// PeerTripped reports whether the named peer's circuit is open: the
// peer is skipped by discovery and fallback until a probe succeeds.
func (a *Agent) PeerTripped(name string) bool {
	s := a.slotOf(name)
	return s != nil && s.tripped
}

// peerAnswered asks a failed exchange's error who answered. A peer over a
// real wire fails in two ways: it answered with a refusal (alive, so its
// breaker must not trip), or nothing came back. The wire's error type says
// which through a PeerAnswered method; known is false for an error without
// one — every in-process peer, the fault gate — which keeps the single
// meaning an error has in the simulator.
func peerAnswered(err error) (answered, known bool) {
	var e interface{ PeerAnswered() bool }
	if errors.As(err, &e) {
		return e.PeerAnswered(), true
	}
	return false, false
}

// recordExchange feeds s's circuit breaker with the outcome of one
// exchange: nil or a refusal the peer itself sent closes the circuit,
// anything else counts against it.
func (a *Agent) recordExchange(s *peerSlot, err error) {
	if err != nil {
		if answered, _ := peerAnswered(err); !answered {
			a.peerFailed(s)
			return
		}
	}
	a.peerSucceeded(s)
}

// CountRedispatch records that this agent re-placed a task rescued from
// a failed resource (the injector drives the re-dispatch through
// HandleRequest, then attributes it here).
func (a *Agent) CountRedispatch() { a.stats.redispatches.Inc() }

// Name returns the agent's identity.
func (a *Agent) Name() string { return a.name }

// Local returns the scheduler this agent fronts.
func (a *Agent) Local() *scheduler.Local { return a.local }

// Upper returns the upper neighbour, or nil at the head of the hierarchy.
func (a *Agent) Upper() Peer { return a.upper }

// Lowers returns the lower neighbours.
func (a *Agent) Lowers() []Peer {
	lowers := a.lowerSlots()
	out := make([]Peer, len(lowers))
	for i, s := range lowers {
		out[i] = s.peer
	}
	return out
}

// Stats returns a snapshot of the agent's counters. The counters are
// atomic, so unlike the rest of the agent this is safe to call from any
// goroutine while the agent runs — each field is read individually, so
// the snapshot is per-counter exact but not a cross-counter cut.
func (a *Agent) Stats() Stats {
	return Stats{
		Received:       int(a.stats.received.Value()),
		LocalAccept:    int(a.stats.localAccept.Value()),
		Forwarded:      int(a.stats.forwarded.Value()),
		Escalated:      int(a.stats.escalated.Value()),
		Fallbacks:      int(a.stats.fallbacks.Value()),
		Pulls:          int(a.stats.pulls.Value()),
		PushesSent:     int(a.stats.pushesSent.Value()),
		PushesReceived: int(a.stats.pushesReceived.Value()),
		FailedPulls:    int(a.stats.failedPulls.Value()),
		Redispatches:   int(a.stats.redispatches.Value()),
	}
}

// RegisterMetrics attaches the agent's counters to a telemetry registry
// under agent_*_total{resource=...} names. The registry reads the same
// atomics the agent bumps — no double counting, no extra hot-path cost.
func (a *Agent) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	label := func(name string) string { return telemetry.Label(name, "resource", a.name) }
	reg.RegisterCounter(label("agent_requests_received_total"), &a.stats.received)
	reg.RegisterCounter(label("agent_local_accepts_total"), &a.stats.localAccept)
	reg.RegisterCounter(label("agent_forwards_total"), &a.stats.forwarded)
	reg.RegisterCounter(label("agent_escalations_total"), &a.stats.escalated)
	reg.RegisterCounter(label("agent_fallbacks_total"), &a.stats.fallbacks)
	reg.RegisterCounter(label("agent_pulls_total"), &a.stats.pulls)
	reg.RegisterCounter(label("agent_pushes_sent_total"), &a.stats.pushesSent)
	reg.RegisterCounter(label("agent_pushes_received_total"), &a.stats.pushesReceived)
	reg.RegisterCounter(label("agent_failed_pulls_total"), &a.stats.failedPulls)
	reg.RegisterCounter(label("agent_redispatches_total"), &a.stats.redispatches)
	reg.RegisterCounter(label("agent_breaker_trips_total"), &a.stats.breakerTrips)
	reg.RegisterGauge(label("agent_breakers_open"), &a.stats.breakersOpen)
}

// SetUpper wires a remote upper neighbour; Link is the in-process
// equivalent that wires both directions at once.
func (a *Agent) SetUpper(p Peer) error {
	if p == nil {
		return fmt.Errorf("agent: nil upper peer")
	}
	if a.upper != nil {
		return &AlreadyLinkedError{Child: a.name, Upper: a.upper.PeerName()}
	}
	a.link(p, true)
	return nil
}

// ClearUpper unwires the upper neighbour and forgets its soft state —
// the remote counterpart of Unlink's child half, used when this agent
// gracefully deregisters from a live farm.
func (a *Agent) ClearUpper() {
	if a.upper != nil {
		a.unlink(0)
	}
}

// AddLower wires a remote lower neighbour.
func (a *Agent) AddLower(p Peer) error {
	if p == nil {
		return fmt.Errorf("agent: nil lower peer")
	}
	a.link(p, false)
	return nil
}

// RemoveLower unwires the named lower neighbour and forgets its soft
// state, reporting whether it was present. It is the remote counterpart
// of Unlink, driven by a lower agent's graceful deregistration.
func (a *Agent) RemoveLower(name string) bool {
	off := len(a.slots) - len(a.lowerSlots())
	for i, s := range a.lowerSlots() {
		if s.name == name {
			a.unlink(off + i)
			return true
		}
	}
	return false
}

// Forget drops every trace of the named peer from the agent's soft
// state: the cached advertisement — immediate expiry, so a gracefully
// departing neighbour vanishes from the service table at the leave
// event instead of ageing out through AdvertTTL — and the
// circuit-breaker history. A linked peer keeps its (now empty) slot.
func (a *Agent) Forget(name string) {
	for _, s := range a.slots {
		if s.name == name {
			a.reset(s)
		}
	}
	a.pushed = slices.DeleteFunc(a.pushed, func(s *peerSlot) bool { return s.name == name })
}

// Pull refreshes the agent's service-information set from its upper and
// lower neighbours ("an agent pulls service information from its lower
// and upper agents every ten seconds", §4.1). Unreachable neighbours keep
// their previous advertisement (subject to AdvertTTL at read time); each
// failed attempt feeds the peer's circuit breaker, and each success
// doubles as the probe that closes a tripped breaker.
func (a *Agent) Pull(now float64) { a.pullBatched(now, false) }

// pullBatched is the cache-refresh loop behind Pull and PullAll. Batched,
// it takes each live in-process neighbour's base advertisement from the
// tick-wide snapshot PullAll took instead of recomputing ServiceInfo per
// puller (every in-process neighbour of a tree member is a member too).
// The publisher's fault counters are still read live, at exchange time,
// because a lossy-gate failure earlier in the same tick must be visible
// to later pullers. Other peers — all of them under Pull — answer
// PullService.
func (a *Agent) pullBatched(now float64, batched bool) {
	for _, s := range a.slots {
		if s.unlinked {
			continue
		}
		var info scheduler.ServiceInfo
		err := a.gateErr(s.name, now)
		if err == nil {
			if peer, ok := s.peer.(*Agent); ok && batched && peer.advertLive {
				info = peer.annotate(peer.advert)
			} else {
				info, err = s.peer.PullService()
			}
		}
		a.recordExchange(s, err)
		if err != nil {
			a.stats.failedPulls.Inc()
			continue
		}
		a.store(s, info, now)
	}
	a.stats.pulls.Inc()
}

// PushAdvertisement implements AdvertSink: record a neighbour's pushed
// service information. A sender that is not linked is kept aside and
// adopted when a peer of that name is linked.
func (a *Agent) PushAdvertisement(from string, info scheduler.ServiceInfo, now float64) error {
	s := a.slotOf(from)
	if s == nil {
		for _, q := range a.pushed {
			if q.name == from {
				s = q
				break
			}
		}
	}
	if s == nil {
		s = &peerSlot{name: from}
		a.pushed = append(a.pushed, s)
	}
	a.store(s, info, now)
	a.stats.pushesReceived.Inc()
	return nil
}

// shouldPush reports whether the agent's service information has drifted
// enough from the last pushed advertisement to justify an event-triggered
// push, returning the current information either way.
func (a *Agent) shouldPush() (scheduler.ServiceInfo, bool) {
	si := a.local.ServiceInfo()
	if a.pushedOnce {
		delta := si.Freetime - a.lastPushedFreetime
		if delta < 0 {
			delta = -delta
		}
		if delta < a.PushThreshold {
			return si, false
		}
	}
	return si, true
}

// markPushed records that the advertisement was delivered to sent
// neighbours; subsequent shouldPush calls measure drift from this point.
func (a *Agent) markPushed(si scheduler.ServiceInfo, sent int) {
	if sent <= 0 {
		return
	}
	a.stats.pushesSent.Add(uint64(sent))
	a.lastPushedFreetime = si.Freetime
	a.pushedOnce = true
}

// MaybePush pushes the agent's advertisement to every neighbour that
// accepts pushes when the freetime has drifted past PushThreshold since
// the last push. It returns the number of neighbours updated. The
// simulator and the networked node both call it after a task lands on
// this agent's resource.
func (a *Agent) MaybePush(now float64) int {
	si, ok := a.shouldPush()
	if !ok {
		return 0
	}
	sent := 0
	for _, s := range a.slots {
		sink, ok := s.peer.(AdvertSink)
		if !ok || s.unlinked {
			continue
		}
		err := a.gateErr(s.name, now)
		if err == nil {
			err = sink.PushAdvertisement(a.name, si, now)
		}
		a.recordExchange(s, err)
		if err == nil {
			sent++
		}
	}
	a.markPushed(si, sent)
	return sent
}

// PeerName implements Peer.
func (a *Agent) PeerName() string { return a.name }

// PullService implements Peer: the agent's advertisement is its local
// scheduler's service information, annotated with the agent's fault
// counters so peers can observe a resource's failure history.
func (a *Agent) PullService() (scheduler.ServiceInfo, error) {
	return a.annotate(a.local.ServiceInfo()), nil
}

// annotate stamps the agent's live fault counters on an advertisement.
func (a *Agent) annotate(si scheduler.ServiceInfo) scheduler.ServiceInfo {
	si.FailedPulls = int(a.stats.failedPulls.Value())
	si.Redispatches = int(a.stats.redispatches.Value())
	return si
}

// Handle implements Peer.
func (a *Agent) Handle(req Request, now float64) (Dispatch, error) {
	return a.HandleRequest(req, now)
}

// SubmitDirect implements Peer. Like AcceptLocal it floors now at the
// scheduler's own clock.
func (a *Agent) SubmitDirect(req Request, now float64) (Dispatch, error) {
	id, err := a.local.SubmitRequest(req.App, req.Deadline, max(now, a.local.Now()), req.ReqID)
	if err != nil {
		return Dispatch{}, err
	}
	a.stats.localAccept.Inc()
	return Dispatch{Resource: a.name, TaskID: id, ReqID: req.ReqID, Hops: len(req.Visited), Fallback: true}, nil
}

// CachedServiceNames lists the advertisers in the service set: linked
// neighbours in discovery order (the upper first, then the lowers in link
// order), then senders that pushed without being linked, in arrival order.
func (a *Agent) CachedServiceNames() []string {
	out := make([]string, 0, len(a.slots)+len(a.pushed))
	for _, s := range a.slots {
		if s.cached {
			out = append(out, s.name)
		}
	}
	for _, s := range a.pushed {
		out = append(out, s.name)
	}
	return out
}

// estimateRemote evaluates eq. 10 against a slot's cached advertisement:
// the expected completion of app on the advertised resource, using the
// cached freetime ω (clamped to now — advertisements age between pulls)
// plus the best predicted execution time over the advertised node counts,
// read from the advertised hardware's column. It is false for unknown
// hardware or a model that fails to evaluate.
func (a *Agent) estimateRemote(s *peerSlot, app *pace.AppModel, now float64) (float64, bool) {
	if s.col == nil {
		return 0, false
	}
	best, err := s.col.Best(app, s.info.NProc)
	if err != nil {
		return 0, false
	}
	ft := s.info.Freetime
	if now > ft {
		ft = now
	}
	return ft + best, true
}

// candidate reports whether s's advertisement may be estimated for a
// request in env at now: cached, supporting env, and within the agent's
// staleness budget (with AdvertTTL unset every advertisement is trusted
// forever, the paper's fault-free behaviour). Tripped peers are not
// candidates.
func (a *Agent) candidate(s *peerSlot, env string, now float64) bool {
	return s.cached && !s.tripped && slices.Contains(s.info.Environments, env) &&
		(a.AdvertTTL <= 0 || now-s.pulledAt <= a.AdvertTTL)
}

// DecisionKind classifies the outcome of one discovery step at an agent.
type DecisionKind int

// Discovery step outcomes.
const (
	// DecideLocal: the local resource meets the deadline; accept here.
	DecideLocal DecisionKind = iota
	// DecideForward: dispatch to the matched neighbour for discovery.
	DecideForward
	// DecideEscalate: no match among neighbours; submit to the upper agent.
	DecideEscalate
	// DecideFallbackLocal: head of hierarchy, no match anywhere; the local
	// resource is the best-effort target.
	DecideFallbackLocal
	// DecideFallbackRemote: head of hierarchy, no match anywhere; a
	// neighbour is the best-effort target (direct submit, no rediscovery).
	DecideFallbackRemote
	// DecideFail: no resource supports the execution environment at all.
	DecideFail
)

// Decision is one discovery step: what to do, with whom, and the visited
// list to carry forward. Decide performs no dispatch itself; HandleRequest
// carries the decision out.
type Decision struct {
	Kind    DecisionKind
	Peer    Peer    // set for Forward, Escalate and FallbackRemote
	Eta     float64 // η estimate behind the decision, when available
	Visited []string
	Err     error // set for DecideFail

	slot *peerSlot // Peer's slot
}

// Decide runs the §3.1 discovery logic for a request arriving at this
// agent: the agent's own service is evaluated first; if the local
// resource cannot meet the deadline, the cached advertisements of upper
// and lower neighbours are evaluated and the best match chosen; with no
// match the request escalates to the upper agent; at the head of the
// hierarchy a best-effort fallback targets the lowest-η candidate so the
// task is not lost (documented deviation — the paper lets discovery
// terminate unsuccessfully, but its experiments account for all 600
// tasks).
func (a *Agent) Decide(req Request, now float64) Decision {
	a.stats.received.Inc()
	visited := make([]string, 0, len(req.Visited)+1)
	visited = append(visited, req.Visited...)
	visited = append(visited, a.name)
	req.Visited = visited
	d := Decision{Visited: visited}

	// 1. Own service first ("an agent always gives priority to the local
	// scheduler", §3.2).
	if a.local.SupportsEnvironment(req.Env) {
		eta, err := a.local.EstimateCompletion(req.App)
		if err == nil && eta <= req.Deadline {
			d.Kind, d.Eta = DecideLocal, eta
			return d
		}
	}

	// 2. Evaluate neighbours' advertised services.
	if target, eta := a.bestNeighbour(req, now); target != nil {
		a.stats.forwarded.Inc()
		d.Kind, d.Peer, d.slot, d.Eta = DecideForward, target.peer, target, eta
		return d
	}

	// 3. No service meets the requirement: submit to the upper agent —
	// unless its circuit is tripped, in which case this agent behaves
	// like the head and falls back rather than escalating into a known
	// failure.
	if up := a.upperSlot(); up != nil && !req.visited(up.name) && !up.tripped {
		a.stats.escalated.Inc()
		d.Kind, d.Peer, d.slot = DecideEscalate, up.peer, up
		return d
	}

	// 4. Head of the hierarchy, still no match: best-effort fallback.
	a.stats.fallbacks.Inc()
	peer, eta, local, err := a.fallbackTarget(req, now, nil)
	if err != nil {
		d.Kind, d.Err = DecideFail, err
		return d
	}
	if local {
		d.Kind, d.Eta = DecideFallbackLocal, eta
		return d
	}
	d.Kind, d.Peer, d.slot, d.Eta = DecideFallbackRemote, peer.peer, peer, eta
	return d
}

// callPeer sends the request to s's peer — for discovery, or with direct
// set straight onto its scheduler's queue — feeding the peer's circuit
// breaker: a gate block counts exactly like a transport failure, a success
// (or a refusal the peer itself sent) closes a tripped breaker.
func (a *Agent) callPeer(s *peerSlot, req Request, now float64, direct bool) (d Dispatch, err error) {
	if err = a.gateErr(s.name, now); err == nil {
		if direct {
			d, err = s.peer.SubmitDirect(req, now)
		} else {
			d, err = s.peer.Handle(req, now)
		}
	}
	a.recordExchange(s, err)
	return d, err
}

// HandleRequest runs discovery and carries out the decision, recursing
// through its peers: in-process agents in the simulator, wire stubs under
// a networked node, which holds its lock around this call and releases it
// inside each stub for the length of the exchange — so the scheduler's
// clock may have moved on when a stub returns (see AcceptLocal). A forward
// reports Hops = len(Visited) at every agent on the way back, so the
// submitter sees the first agent's count.
//
// Every peer failure en route (dead agent, severed link) re-enters the
// eq. 10 machinery — escalation, then the best-effort fallback — so a
// request is only ever lost when no reachable resource supports its
// environment at all.
func (a *Agent) HandleRequest(req Request, now float64) (Dispatch, error) {
	dec := a.Decide(req, now)
	req.Visited = dec.Visited
	switch dec.Kind {
	case DecideLocal:
		return a.AcceptLocal(req, now, dec.Eta, false)
	case DecideForward:
		d, err := a.callPeer(dec.slot, req, now, false)
		if err == nil {
			d.Hops = len(req.Visited) // approximate travel count
			return d, nil
		}
		// The neighbour failed outright (e.g. all nodes down or
		// unreachable): continue with escalation or fallback as if no
		// neighbour had matched, never retrying the failed peer.
		failed := map[string]bool{dec.slot.name: true}
		if up := a.upperSlot(); up != nil && !req.visited(up.name) && !failed[up.name] && !up.tripped {
			a.stats.escalated.Inc()
			if d, err := a.callPeer(up, req, now, false); err == nil {
				return d, nil
			}
			failed[up.name] = true
		}
		a.stats.fallbacks.Inc()
		return a.dispatchFallback(req, now, failed)
	case DecideEscalate:
		d, err := a.callPeer(dec.slot, req, now, false)
		if err == nil {
			return d, nil
		}
		// Upper agent unreachable: behave like the head and fall back.
		a.stats.fallbacks.Inc()
		return a.dispatchFallback(req, now, map[string]bool{dec.slot.name: true})
	case DecideFallbackLocal:
		return a.AcceptLocal(req, now, dec.Eta, true)
	case DecideFallbackRemote:
		d, err := a.callPeer(dec.slot, req, now, true)
		if err != nil {
			// Best-effort target gone too: retry excluding it.
			return a.dispatchFallback(req, now, map[string]bool{dec.slot.name: true})
		}
		d.Eta = dec.Eta
		d.Fallback = true
		return d, nil
	}
	return Dispatch{}, dec.Err
}

// ErrNoMigrationTarget rejects a migration offer: no reachable resource
// is expected to meet the task's deadline, so the task is better left
// where it is (a migration must never trade a slow placement for a
// best-effort one).
var ErrNoMigrationTarget = fmt.Errorf("agent: no deadline-meeting migration target")

// HandleMigration evaluates a migration offer: a drift-breached origin
// scheduler asking this agent to re-place one of its not-yet-started
// tasks. Unlike HandleRequest it never escalates or falls back — the
// task already has a (degraded) home, so only a placement expected to
// meet the deadline is worth the move; anything else returns
// ErrNoMigrationTarget and the task stays put. The offer carries the
// origin in Visited, excluding the drifting resource from discovery.
// Counters are touched only for paths actually taken, so a rejected
// offer leaves the agent's stats exactly as it found them.
func (a *Agent) HandleMigration(req Request, now float64) (Dispatch, error) {
	visited := make([]string, 0, len(req.Visited)+1)
	visited = append(visited, req.Visited...)
	if !req.visited(a.name) {
		visited = append(visited, a.name)
	}
	req.Visited = visited

	// Own service first, mirroring Decide's priority order.
	if a.local.SupportsEnvironment(req.Env) {
		eta, err := a.local.EstimateCompletion(req.App)
		if err == nil && eta <= req.Deadline {
			a.stats.received.Inc()
			return a.AcceptLocal(req, now, eta, false)
		}
	}
	if target, _ := a.bestNeighbour(req, now); target != nil {
		d, err := a.callPeer(target, req, now, false)
		if err == nil {
			a.stats.received.Inc()
			a.stats.forwarded.Inc()
			d.Hops = len(req.Visited)
			return d, nil
		}
	}
	return Dispatch{}, ErrNoMigrationTarget
}

// AcceptLocal submits the request to this agent's own scheduler, flooring
// now at the scheduler's clock. When one driver moves both — always, in
// the simulator — the scheduler is never ahead of now. Under a networked
// node a failing exchange can outlast a tick of the node's clock, which
// advances the scheduler past the now this call began with; submitting at
// that now would panic AdvanceTo ("clock moved backwards"), which rightly
// treats a backwards clock as a bug.
func (a *Agent) AcceptLocal(req Request, now, eta float64, fallback bool) (Dispatch, error) {
	id, err := a.local.SubmitRequest(req.App, req.Deadline, max(now, a.local.Now()), req.ReqID)
	if err != nil {
		return Dispatch{}, err
	}
	a.stats.localAccept.Inc()
	hops := len(req.Visited) - 1
	if hops < 0 {
		hops = 0
	}
	return Dispatch{Resource: a.name, TaskID: id, ReqID: req.ReqID, Eta: eta, Hops: hops, Fallback: fallback}, nil
}

// bestNeighbour returns the slot of the unvisited neighbour whose
// advertised service yields the lowest η within the deadline, nil when
// none does. Peers with a tripped circuit or an expired advertisement are
// not candidates.
func (a *Agent) bestNeighbour(req Request, now float64) (*peerSlot, float64) {
	var best *peerSlot
	bestEta := math.Inf(1)
	for _, s := range a.slots {
		if !a.candidate(s, req.Env, now) || req.visited(s.name) {
			continue
		}
		eta, ok := a.estimateRemote(s, req.App, now)
		if !ok || eta > req.Deadline {
			continue
		}
		if eta < bestEta {
			best, bestEta = s, eta
		}
	}
	return best, bestEta
}

// fallbackTarget picks the minimum-η candidate among the local resource
// and every cached advertisement, ignoring deadlines. Peers in exclude
// (known to be failing) are skipped.
func (a *Agent) fallbackTarget(req Request, now float64, exclude map[string]bool) (peer *peerSlot, eta float64, local bool, err error) {
	bestEta := math.Inf(1)
	var bestPeer *peerSlot
	isLocal := false

	if a.local.SupportsEnvironment(req.Env) {
		if e, err := a.local.EstimateCompletion(req.App); err == nil {
			bestEta, isLocal = e, true
		}
	}
	for _, s := range a.slots {
		if !a.candidate(s, req.Env, now) || exclude[s.name] {
			continue
		}
		e, ok := a.estimateRemote(s, req.App, now)
		if !ok {
			continue
		}
		if e < bestEta {
			bestEta, bestPeer, isLocal = e, s, false
		}
	}
	if !isLocal && bestPeer == nil {
		return nil, 0, false, fmt.Errorf("agent: %s: no resource supports environment %q", a.name, req.Env)
	}
	return bestPeer, bestEta, isLocal, nil
}

// dispatchFallback performs the best-effort dispatch after discovery has
// failed: locally, or directly to the chosen neighbour's scheduler
// (re-running discovery there would loop). Failing peers accumulate in
// exclude so the retry chain always terminates.
func (a *Agent) dispatchFallback(req Request, now float64, exclude map[string]bool) (Dispatch, error) {
	for {
		peer, eta, local, err := a.fallbackTarget(req, now, exclude)
		if err != nil {
			return Dispatch{}, err
		}
		if local {
			return a.AcceptLocal(req, now, eta, true)
		}
		d, err := a.callPeer(peer, req, now, true)
		if err != nil {
			if exclude == nil {
				exclude = map[string]bool{}
			}
			exclude[peer.name] = true
			continue
		}
		d.Eta = eta
		d.Fallback = true
		return d, nil
	}
}
