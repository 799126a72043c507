package transport

import (
	"errors"
	"fmt"

	"repro/internal/agent"
	"repro/internal/scheduler"
	"repro/internal/xmlmsg"
)

// reserveActionWire maps agent reservation actions onto the wire.
func reserveActionWire(a agent.ReserveAction) (string, error) {
	switch a {
	case agent.ReserveQuoteOp:
		return xmlmsg.ReserveActionQuote, nil
	case agent.ReserveHoldOp:
		return xmlmsg.ReserveActionHold, nil
	case agent.ReserveConfirmOp:
		return xmlmsg.ReserveActionConfirm, nil
	case agent.ReserveReleaseOp:
		return xmlmsg.ReserveActionRelease, nil
	}
	return "", fmt.Errorf("transport: unknown reserve action %d", int(a))
}

// reserveActionFromWire inverts reserveActionWire.
func reserveActionFromWire(s string) (agent.ReserveAction, error) {
	switch s {
	case xmlmsg.ReserveActionQuote:
		return agent.ReserveQuoteOp, nil
	case xmlmsg.ReserveActionHold:
		return agent.ReserveHoldOp, nil
	case xmlmsg.ReserveActionConfirm:
		return agent.ReserveConfirmOp, nil
	case xmlmsg.ReserveActionRelease:
		return agent.ReserveReleaseOp, nil
	}
	return 0, fmt.Errorf("transport: unknown reserve action %q", s)
}

// HandleReserve implements agent.ReservePeer: carry the op to the remote
// neighbour as a reserve message. Routing misses keep their identity
// across the wire because agent.IsNotRoutable matches the error text,
// which survives the ErrorReply round trip.
func (p *RemotePeer) HandleReserve(op agent.ReserveOp, now float64) (agent.ReserveReply, error) {
	action, err := reserveActionWire(op.Action)
	if err != nil {
		return agent.ReserveReply{}, err
	}
	wire := xmlmsg.Reserve{
		Type:     "reserve",
		Action:   action,
		ResvID:   op.ResvID,
		Resource: op.Resource,
		Visited:  op.Visited,
	}
	switch op.Action {
	case agent.ReserveQuoteOp:
		wire.Nodes = op.Nodes
		wire.Earliest = xmlmsg.FormatSeconds(op.Earliest)
		wire.Duration = xmlmsg.FormatSeconds(op.Duration)
	case agent.ReserveHoldOp:
		wire.Holder = op.Holder
		wire.Mask = xmlmsg.FormatMask(op.Mask)
		wire.Start = xmlmsg.FormatSeconds(op.Start)
		wire.End = xmlmsg.FormatSeconds(op.End)
		wire.TTL = xmlmsg.FormatSeconds(op.TTL)
	case agent.ReserveConfirmOp:
		wire.ReqID = op.ReqID
		if op.App != nil {
			wire.Model = op.App.Name
		}
	}
	reply, _, err := p.client().Call(p.Addr, wire)
	if err != nil {
		return agent.ReserveReply{}, err
	}
	ack, ok := reply.(*xmlmsg.ReserveAck)
	if !ok {
		return agent.ReserveReply{}, fmt.Errorf("transport: %s replied %T to a reserve %s", p.Name, reply, action)
	}
	out := agent.ReserveReply{TaskID: ack.TaskID}
	for _, q := range ack.Quotes {
		mask, err := xmlmsg.ParseMask(q.Mask)
		if err != nil {
			return agent.ReserveReply{}, err
		}
		start, err := xmlmsg.ParseSeconds(q.Start)
		if err != nil {
			return agent.ReserveReply{}, err
		}
		end, err := xmlmsg.ParseSeconds(q.End)
		if err != nil {
			return agent.ReserveReply{}, err
		}
		out.Quotes = append(out.Quotes, scheduler.ReserveQuote{
			Resource: q.Resource, Mask: mask, Start: start, End: end,
		})
	}
	return out, nil
}

// reserveOpFromWire parses a reserve message into an agent op; the app
// model for a confirm resolves against the node's library.
func (n *Node) reserveOpFromWire(m *xmlmsg.Reserve) (agent.ReserveOp, error) {
	action, err := reserveActionFromWire(m.Action)
	if err != nil {
		return agent.ReserveOp{}, err
	}
	op := agent.ReserveOp{
		Action:   action,
		ResvID:   m.ResvID,
		Holder:   m.Holder,
		Resource: m.Resource,
		Nodes:    m.Nodes,
		ReqID:    m.ReqID,
		Visited:  m.Visited,
	}
	parse := func(dst *float64, s, what string) {
		if err != nil || s == "" {
			return
		}
		var v float64
		if v, err = xmlmsg.ParseSeconds(s); err == nil {
			*dst = v
		} else {
			err = fmt.Errorf("reserve %s: %w", what, err)
		}
	}
	parse(&op.Earliest, m.Earliest, "earliest")
	parse(&op.Duration, m.Duration, "duration")
	parse(&op.Start, m.Start, "start")
	parse(&op.End, m.End, "end")
	parse(&op.TTL, m.TTL, "ttl")
	if err != nil {
		return agent.ReserveOp{}, err
	}
	if op.Mask, err = xmlmsg.ParseMask(m.Mask); err != nil {
		return agent.ReserveOp{}, err
	}
	if action == agent.ReserveConfirmOp {
		app, ok := n.lib.Lookup(m.Model)
		if !ok {
			return agent.ReserveOp{}, fmt.Errorf("unknown application model %q in reserve confirm", m.Model)
		}
		op.App = app
	}
	return op, nil
}

// reserveAckToWire renders a reply.
func reserveAckToWire(r agent.ReserveReply) xmlmsg.ReserveAck {
	var quotes []xmlmsg.QuoteEntry
	for _, q := range r.Quotes {
		quotes = append(quotes, xmlmsg.QuoteEntry{
			Resource: q.Resource,
			Mask:     xmlmsg.FormatMask(q.Mask),
			Start:    xmlmsg.FormatSeconds(q.Start),
			End:      xmlmsg.FormatSeconds(q.End),
		})
	}
	return xmlmsg.NewReserveAck(r.TaskID, quotes)
}

// reservePeer pairs a routable neighbour with its name for breaker
// accounting outside the lock.
type reservePeer struct {
	name string
	rp   agent.ReservePeer
}

// reservePeersLocked snapshots the neighbours the op may still travel
// to. Caller holds the node lock.
func (n *Node) reservePeersLocked(op *agent.ReserveOp) []reservePeer {
	peers := n.agent.Lowers()
	if up := n.agent.Upper(); up != nil {
		peers = append(peers, up)
	}
	var out []reservePeer
	for _, p := range peers {
		rp, ok := p.(agent.ReservePeer)
		if !ok || op.HasVisited(p.PeerName()) || n.agent.PeerTripped(p.PeerName()) {
			continue
		}
		out = append(out, reservePeer{name: p.PeerName(), rp: rp})
	}
	return out
}

// reserveDispatch routes a reservation op exactly like the in-process
// agent.HandleReserve — interior nodes concatenate a flood's quotes and
// return a routing miss bare, the origin sorts and adds the context — but
// with every remote exchange outside the node lock: two nodes reserving
// through each other must not deadlock.
func (n *Node) reserveDispatch(op agent.ReserveOp) (agent.ReserveReply, error) {
	n.mu.Lock()
	me := n.agent.Name()
	origin := len(op.Visited) == 0
	visited := make([]string, 0, len(op.Visited)+1)
	visited = append(visited, op.Visited...)
	visited = append(visited, me)
	op.Visited = visited
	now := n.Now()
	n.agent.Local().AdvanceTo(now)

	if op.Action == agent.ReserveQuoteOp && op.Resource == "" {
		var reply agent.ReserveReply
		if r, err := n.agent.ApplyReserve(op, now); err == nil {
			reply.Quotes = r.Quotes
		}
		peers := n.reservePeersLocked(&op)
		n.mu.Unlock()
		for _, p := range peers {
			r, err := p.rp.HandleReserve(op, n.Now())
			n.recordPeer(p.name, err)
			if err == nil {
				reply.Quotes = append(reply.Quotes, r.Quotes...)
			}
		}
		if origin {
			reply.Quotes = agent.SortQuotes(reply.Quotes)
		}
		return reply, nil
	}

	if op.Resource == me || op.Resource == "" {
		defer n.mu.Unlock()
		return n.agent.ApplyReserve(op, now)
	}
	peers := n.reservePeersLocked(&op)
	n.mu.Unlock()
	for _, p := range peers {
		r, err := p.rp.HandleReserve(op, n.Now())
		if err == nil {
			n.recordPeer(p.name, nil)
			return r, nil
		}
		if agent.IsNotRoutable(err) {
			// The peer answered; the target just isn't in that direction.
			n.recordPeer(p.name, nil)
			continue
		}
		var xe *ExchangeError
		if errors.As(err, &xe) && xe.Op == "reply" {
			// The op reached its target and was refused: that is the
			// protocol answer, not a transport failure.
			n.recordPeer(p.name, nil)
			return agent.ReserveReply{}, err
		}
		n.recordPeer(p.name, err)
	}
	if !origin {
		return agent.ReserveReply{}, agent.ErrNotRoutable
	}
	return agent.ReserveReply{}, fmt.Errorf("%w: no path from %s to %s", agent.ErrNotRoutable, me, op.Resource)
}
