package agent

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/pace"
	"repro/internal/scheduler"
)

// ReserveAction selects which phase of the reservation protocol a
// ReserveOp carries.
type ReserveAction int

// Reservation protocol phases.
const (
	// ReserveQuoteOp asks for the earliest window a resource (or, with no
	// target resource, every resource reachable through the hierarchy)
	// can guarantee. Quoting changes no state.
	ReserveQuoteOp ReserveAction = iota
	// ReserveHoldOp places phase one of the two-phase commit on the
	// target resource: the window is blocked under a TTL.
	ReserveHoldOp
	// ReserveConfirmOp settles a hold as a confirmed, guaranteed-start
	// task on the target resource.
	ReserveConfirmOp
	// ReserveReleaseOp cancels a held or confirmed booking.
	ReserveReleaseOp
)

// reserveActionNames names each ReserveAction, indexed by its value.
// The names are the reserve message's action attribute on the wire.
var reserveActionNames = [...]string{"quote", "hold", "confirm", "release"}

// String implements fmt.Stringer; it is the action's wire name.
func (ra ReserveAction) String() string {
	if ra >= 0 && int(ra) < len(reserveActionNames) {
		return reserveActionNames[ra]
	}
	return fmt.Sprintf("action(%d)", int(ra))
}

// ParseReserveAction returns the action whose String is name.
func ParseReserveAction(name string) (ReserveAction, error) {
	if i := slices.Index(reserveActionNames[:], name); i >= 0 {
		return ReserveAction(i), nil
	}
	return 0, fmt.Errorf("agent: unknown reserve action %q", name)
}

// ReserveOp is a reservation protocol message travelling through the
// hierarchy — the reservation analogue of Request. Ops addressed to a
// named Resource are routed through the agent graph like discovery
// traffic; a quote op with no target floods the reachable hierarchy and
// aggregates every resource's offer (or, with Best set, the Best
// earliest ones).
type ReserveOp struct {
	Action   ReserveAction
	ResvID   uint64 // grid-wide reservation identity (the booking ID on every part)
	Holder   string // requester identity (contact email)
	Resource string // routing target; empty on a flood quote

	// Quote parameters.
	Nodes    int
	Earliest float64
	Duration float64

	// Hold parameters (the window being committed).
	Mask  uint64
	Start float64
	End   float64
	TTL   float64

	// Confirm parameters.
	ReqID uint64
	App   *pace.AppModel

	// Best, when positive, bounds a flood quote's reply to the Best
	// earliest quotes by (start, resource): each agent keeps only those
	// of its own quote and its neighbours' replies, so a flood moves
	// O(Best) quotes per hop instead of its whole subtree. Zero returns
	// every quote. Best is not carried on the wire: a remote neighbour
	// replies in full, and the agent that asked trims the reply.
	Best int

	// Visited is the path from the op's origin to the agent handling
	// it. Each hop appends its own name in place, so HandleReserve may
	// write past len(Visited) into the slice's spare capacity, and
	// sibling subtrees reuse the same slot. That is safe because a peer
	// call returns only when the peer is done with the op: in-process
	// calls are synchronous and a remote peer encodes the op before it
	// returns. A caller keeps nothing past len(Visited).
	Visited []string
}

// pathCap is the capacity of the path stack an origin allocates: deep
// enough for any path in the grids this repo builds, and append grows
// it past that.
const pathCap = 16

// visited reports whether the op has already passed through the
// named agent.
func (op *ReserveOp) visited(name string) bool { return slices.Contains(op.Visited, name) }

// ReserveReply answers a ReserveOp: the aggregated quotes for a quote
// op, the scheduler-local task ID for a confirm.
type ReserveReply struct {
	Quotes []scheduler.ReserveQuote
	TaskID int
}

// ReservePeer is implemented by peers that speak the reservation
// protocol. In-process agents implement it directly; remote peers carry
// the op as a reserve message over the wire. Peers that do not implement
// it are simply not shopped — mixed deployments degrade to the
// reservation-capable subset.
type ReservePeer interface {
	HandleReserve(op ReserveOp, now float64) (ReserveReply, error)
}

// errNotRoutableText is matched by IsNotRoutable across the wire, where
// error identity is lost to serialisation.
const errNotRoutableText = "reservation target not reachable"

// ErrNotRoutable reports that a targeted reservation op found no path to
// its resource: every reachable direction was searched without finding
// it. The target refusing the op is a different (and propagated) error.
// Dead ends inside the hierarchy return it bare — a routed op meets one
// per agent off its path — and only the op's origin adds the context.
var ErrNotRoutable = errors.New("agent: " + errNotRoutableText)

// IsNotRoutable reports whether err is a routing miss, surviving the
// round-trip through wire serialisation (which flattens errors to text).
func IsNotRoutable(err error) bool {
	return err != nil && (errors.Is(err, ErrNotRoutable) || strings.Contains(err.Error(), errNotRoutableText))
}

// HandleReserve implements ReservePeer: execute the op locally if this
// agent is the target, otherwise route it through the hierarchy. A
// flood quote aggregates the local quote with every reachable
// neighbour's; the origin's reply is deduplicated by resource and sorted
// by (start, resource) — price-ordered for the shopper, earliest
// guaranteed start first. HandleReserve appends its name to op.Visited
// in place (see ReserveOp.Visited).
func (a *Agent) HandleReserve(op ReserveOp, now float64) (ReserveReply, error) {
	origin := len(op.Visited) == 0
	if origin && cap(op.Visited) == 0 {
		op.Visited = make([]string, 0, pathCap)
	}
	op.Visited = append(op.Visited, a.name)

	if op.Action == ReserveQuoteOp && op.Resource == "" {
		reply := a.floodQuote(op, now)
		if origin && op.Best <= 0 {
			reply.Quotes = sortQuotes(reply.Quotes)
		}
		return reply, nil
	}
	if op.Resource == a.name || op.Resource == "" {
		return a.applyReserve(op, now)
	}
	for _, s := range a.slots {
		rp, ok := s.peer.(ReservePeer)
		if !ok || s.unlinked || s.tripped || op.visited(s.name) {
			continue
		}
		if err := a.gateErr(s.name, now); err != nil {
			a.peerFailed(s)
			continue
		}
		r, err := rp.HandleReserve(op, now)
		if err == nil {
			a.peerSucceeded(s)
			return r, nil
		}
		if IsNotRoutable(err) {
			// The peer answered — the target just isn't in that direction.
			a.peerSucceeded(s)
			continue
		}
		if answered, known := peerAnswered(err); known {
			// Over a wire: nothing coming back is one more direction that
			// does not lead to the target, like a gate block; an answer is
			// the refusal below, sent by a live peer.
			a.recordExchange(s, err)
			if !answered {
				continue
			}
		}
		// The op reached its target and was refused (overlap, expired
		// hold, …): that is the protocol answer, not a routing failure.
		return ReserveReply{}, err
	}
	if !origin {
		return ReserveReply{}, ErrNotRoutable
	}
	return ReserveReply{}, fmt.Errorf("%w: no path from %s to %s for %s %d",
		ErrNotRoutable, a.name, op.Resource, op.Action, op.ResvID)
}

// floodQuote gathers this resource's quote and every reachable
// neighbour's, the reservation analogue of discovery's advertisement
// walk. With Best unset an interior agent only concatenates its subtree,
// in walk order; with Best set it keeps the Best earliest, sorted and
// deduplicated as the origin would (the hierarchy is a tree, so a flood
// quotes each resource once, and the Best earliest of the union are the
// Best earliest of each reply's Best earliest). Resources that cannot
// satisfy the request (fewer nodes than asked for, or no window) simply
// contribute no quote.
func (a *Agent) floodQuote(op ReserveOp, now float64) ReserveReply {
	var reply ReserveReply
	if op.Best > 0 {
		reply.Quotes = make([]scheduler.ReserveQuote, 0, op.Best)
	}
	if q, err := a.local.QuoteReservation(op.Nodes, op.Earliest, op.Duration, now); err == nil {
		reply.Quotes = keepQuote(reply.Quotes, q, op.Best)
	}
	for _, s := range a.slots {
		rp, ok := s.peer.(ReservePeer)
		if !ok || s.unlinked || s.tripped || op.visited(s.name) {
			continue
		}
		if err := a.gateErr(s.name, now); err != nil {
			a.peerFailed(s)
			continue
		}
		r, err := rp.HandleReserve(op, now)
		a.recordExchange(s, err)
		if err != nil {
			continue
		}
		for _, q := range r.Quotes {
			reply.Quotes = keepQuote(reply.Quotes, q, op.Best)
		}
	}
	return reply
}

// keepQuote adds q to quotes. With best ≤ 0 it appends. Otherwise quotes
// holds at most best quotes sorted by (start, resource), and q takes its
// place among them unless its resource is already there (the first quote
// of a resource wins, as in sortQuotes) or best earlier ones are.
func keepQuote(quotes []scheduler.ReserveQuote, q scheduler.ReserveQuote, best int) []scheduler.ReserveQuote {
	if best <= 0 {
		return append(quotes, q)
	}
	at := len(quotes)
	for i := len(quotes) - 1; i >= 0; i-- {
		if quotes[i].Resource == q.Resource {
			return quotes
		}
		if quoteLess(q, quotes[i]) {
			at = i
		}
	}
	if at >= best {
		return quotes
	}
	if len(quotes) < best {
		quotes = append(quotes, scheduler.ReserveQuote{})
	}
	copy(quotes[at+1:], quotes[at:])
	quotes[at] = q
	return quotes
}

// quoteLess is the order a flood's origin sorts quotes in: earliest
// start first, ties broken by resource name.
func quoteLess(x, y scheduler.ReserveQuote) bool {
	if x.Start != y.Start {
		return x.Start < y.Start
	}
	return x.Resource < y.Resource
}

// sortQuotes is what a flood's origin does to the quotes it gathered:
// keep each resource's first quote and order them by (start, resource).
// It reorders quotes in place and returns the deduplicated prefix.
func sortQuotes(quotes []scheduler.ReserveQuote) []scheduler.ReserveQuote {
	seen := make(map[string]bool, len(quotes))
	uniq := quotes[:0]
	for _, q := range quotes {
		if !seen[q.Resource] {
			seen[q.Resource] = true
			uniq = append(uniq, q)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return quoteLess(uniq[i], uniq[j]) })
	return uniq
}

// applyReserve executes the op against this agent's own scheduler.
func (a *Agent) applyReserve(op ReserveOp, now float64) (ReserveReply, error) {
	switch op.Action {
	case ReserveQuoteOp:
		q, err := a.local.QuoteReservation(op.Nodes, op.Earliest, op.Duration, now)
		if err != nil {
			return ReserveReply{}, err
		}
		return ReserveReply{Quotes: []scheduler.ReserveQuote{q}}, nil
	case ReserveHoldOp:
		return ReserveReply{}, a.local.HoldReservation(op.ResvID, op.Holder, op.Mask, op.Start, op.End, now, op.TTL)
	case ReserveConfirmOp:
		id, err := a.local.ConfirmReservation(op.ResvID, op.ReqID, op.App, now)
		if err != nil {
			return ReserveReply{}, err
		}
		return ReserveReply{TaskID: id}, nil
	case ReserveReleaseOp:
		return ReserveReply{}, a.local.ReleaseReservation(op.ResvID, now)
	}
	return ReserveReply{}, fmt.Errorf("agent: %s: unknown reserve action %d", a.name, int(op.Action))
}

// ReservationSpec is what a client asks to reserve: Parts node sets of
// Nodes nodes each, on distinct resources, all over one common window of
// Duration seconds starting no earlier than Earliest. Parts == 1 (or 0)
// is a plain single-resource reservation; Parts > 1 is co-allocation.
// MaxSlip bounds how far past Earliest the quoted common start may slip
// before the request is rejected instead (negative means unbounded).
type ReservationSpec struct {
	ResvID   uint64
	Holder   string
	Nodes    int
	Parts    int
	Earliest float64
	Duration float64
	TTL      float64
	MaxSlip  float64
}

// HeldPart is one resource's share of a held reservation.
type HeldPart struct {
	Resource string
	Mask     uint64
}

// HeldReservation is the outcome of successful shopping: every part is
// held (phase one) on its resource for the same window, awaiting
// confirm or release. The booking ID on each resource is the
// reservation's ResvID.
type HeldReservation struct {
	ID     uint64
	Holder string
	Start  float64
	End    float64
	Parts  []HeldPart
}

// maxCoallocRounds bounds the co-allocation fixed point. The common
// start only ever increases and each round is driven by a concrete
// quote, so rounds ~ distinct contention edges; 32 is far beyond any
// realistic chain.
const maxCoallocRounds = 32

// ShopReservation runs the full shopping protocol from this agent:
// flood-quote the hierarchy, choose the cheapest (earliest-starting)
// Parts resources, flood again at their common start until every chosen
// part can guarantee it, then hold every part. Either every part ends
// held — the returned reservation is ready to confirm — or nothing is
// held and an error explains why (no capacity, or the common start
// slipped past MaxSlip). Holding is atomic across parts: any hold
// failure releases the parts already held before returning.
func (a *Agent) ShopReservation(spec ReservationSpec, now float64) (HeldReservation, error) {
	parts := spec.Parts
	if parts < 1 {
		parts = 1
	}
	// Every op below starts from this agent, so they share one path
	// stack, and a flood returns only the parts earliest quotes.
	path := make([]string, 0, pathCap)
	quote := ReserveOp{Action: ReserveQuoteOp, Nodes: spec.Nodes, Earliest: spec.Earliest, Duration: spec.Duration,
		Best: parts, Visited: path}
	rep, err := a.HandleReserve(quote, now)
	if err != nil {
		return HeldReservation{}, err
	}
	if len(rep.Quotes) < parts {
		return HeldReservation{}, fmt.Errorf("agent: %s: %d of %d co-allocation parts quotable for %d×%d nodes",
			a.name, len(rep.Quotes), parts, parts, spec.Nodes)
	}

	// Fixed point on the common start T, the latest start among the Parts
	// earliest offers: stable when every chosen part quotes exactly T,
	// otherwise flood again at earliest=T. A window search is monotone in
	// its earliest start, so a resource that offered T or later offers the
	// same window when asked again at T: re-quoting a stable choice changes
	// nothing and is skipped, and one part, its own common start, never
	// needs a second flood.
	chosen := rep.Quotes[:parts]
	T := commonStart(chosen)
	for round := 0; ; round++ {
		if round >= maxCoallocRounds {
			return HeldReservation{}, fmt.Errorf("agent: %s: co-allocation for reservation %d did not converge in %d rounds",
				a.name, spec.ResvID, maxCoallocRounds)
		}
		if chosen[0].Start == T {
			break
		}
		quote.Earliest = T
		if rep, err = a.HandleReserve(quote, now); err != nil {
			return HeldReservation{}, err
		}
		if len(rep.Quotes) < parts {
			return HeldReservation{}, fmt.Errorf("agent: %s: only %d of %d co-allocation parts still quotable at %g",
				a.name, len(rep.Quotes), parts, T)
		}
		chosen = rep.Quotes[:parts]
		T = commonStart(chosen)
	}
	if spec.MaxSlip >= 0 && T > spec.Earliest+spec.MaxSlip {
		return HeldReservation{}, fmt.Errorf("agent: %s: reservation %d start %g slips %g past requested %g (max slip %g)",
			a.name, spec.ResvID, T, T-spec.Earliest, spec.Earliest, spec.MaxSlip)
	}

	held := HeldReservation{ID: spec.ResvID, Holder: spec.Holder, Start: T, End: T + spec.Duration}
	for _, q := range chosen {
		_, err := a.HandleReserve(ReserveOp{
			Action:   ReserveHoldOp,
			ResvID:   spec.ResvID,
			Holder:   spec.Holder,
			Resource: q.Resource,
			Mask:     q.Mask,
			Start:    T,
			End:      T + spec.Duration,
			TTL:      spec.TTL,
			Visited:  path,
		}, now)
		if err != nil {
			// All-or-nothing: a part that cannot be held voids the others.
			for _, h := range held.Parts {
				_ = a.ReleasePart(h.Resource, spec.ResvID, now)
			}
			return HeldReservation{}, fmt.Errorf("agent: %s: hold of reservation %d part on %s: %w",
				a.name, spec.ResvID, q.Resource, err)
		}
		held.Parts = append(held.Parts, HeldPart{Resource: q.Resource, Mask: q.Mask})
	}
	return held, nil
}

func commonStart(quotes []scheduler.ReserveQuote) float64 {
	t := 0.0
	for i, q := range quotes {
		if i == 0 || q.Start > t {
			t = q.Start
		}
	}
	return t
}

// ConfirmPart settles one held part as a confirmed, guaranteed-start
// task, returning the scheduler-local task ID on the part's resource.
func (a *Agent) ConfirmPart(resource string, resvID, reqID uint64, app *pace.AppModel, now float64) (int, error) {
	rep, err := a.HandleReserve(ReserveOp{
		Action:   ReserveConfirmOp,
		ResvID:   resvID,
		Resource: resource,
		ReqID:    reqID,
		App:      app,
	}, now)
	if err != nil {
		return 0, err
	}
	return rep.TaskID, nil
}

// ReleasePart cancels one held or confirmed part.
func (a *Agent) ReleasePart(resource string, resvID uint64, now float64) error {
	_, err := a.HandleReserve(ReserveOp{
		Action:   ReserveReleaseOp,
		ResvID:   resvID,
		Resource: resource,
	}, now)
	return err
}
