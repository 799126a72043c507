package transport

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scheduler"
	"repro/internal/xmlmsg"
)

// HandleReserve implements agent.ReservePeer: carry the op to the remote
// neighbour as a reserve message. Routing misses keep their identity
// across the wire because agent.IsNotRoutable matches the error text,
// which survives the ErrorReply round trip.
func (p *RemotePeer) HandleReserve(op agent.ReserveOp, now float64) (agent.ReserveReply, error) {
	reply, _, err := p.client().Call(p.Addr, reserveOpToWire(op))
	if err != nil {
		return agent.ReserveReply{}, err
	}
	ack, ok := reply.(*xmlmsg.ReserveAck)
	if !ok {
		return agent.ReserveReply{}, fmt.Errorf("transport: %s replied %T to a reserve %s", p.Name, reply, op.Action)
	}
	return reserveReplyFromWire(ack)
}

// reserveOpToWire renders an op as a reserve message carrying the fields
// its action reads; reserveOpFromWire inverts it.
func reserveOpToWire(op agent.ReserveOp) xmlmsg.Reserve {
	wire := xmlmsg.Reserve{
		Type:     "reserve",
		Action:   op.Action.String(),
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
	return wire
}

// reserveOpFromWire parses a reserve message into an agent op; the app
// model for a confirm resolves against the node's library.
func (n *Node) reserveOpFromWire(m *xmlmsg.Reserve) (agent.ReserveOp, error) {
	action, err := agent.ParseReserveAction(m.Action)
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

// reserveAckToWire renders a reply; reserveReplyFromWire inverts it.
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

// reserveReplyFromWire parses a reserve acknowledgement into a reply.
func reserveReplyFromWire(ack *xmlmsg.ReserveAck) (agent.ReserveReply, error) {
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

// reserveDispatch runs the agent's own HandleReserve — flood, routing,
// the origin's sort and error context — under the node lock; each remote
// exchange on the way leaves it (see hostedPeer), so two nodes reserving
// through each other do not deadlock.
func (n *Node) reserveDispatch(op agent.ReserveOp) (agent.ReserveReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.agent.HandleReserve(op, n.advance())
}
