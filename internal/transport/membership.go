package transport

import (
	"fmt"

	"repro/internal/xmlmsg"
)

// Wire-level dynamic membership: a child node registers with (or
// gracefully deregisters from) a live upper agent, the networked
// counterpart of membership.Registry.Join/Leave. The upper treats a
// join as a new lower neighbour — its next pull tick starts exchanging
// advertisements — and a leave as an immediate forget: the departing
// child's advertisement and breaker history are dropped on the spot
// rather than ageing out through the advert TTL, so no new work routes
// to an agent that said goodbye.

// JoinUpper registers this node under the upper agent at addr and wires
// the link on the child side too. Call after Start — the join message
// advertises the node's own listen port so the upper can call back.
func (n *Node) JoinUpper(upperName, addr string) error {
	if n.srv == nil {
		return fmt.Errorf("transport: join before Start: the upper could not call back")
	}
	msg := xmlmsg.NewJoin(n.agent.Name(), "127.0.0.1", n.srv.Port())
	reply, _, err := defaultClient.Call(addr, msg)
	if err != nil {
		return fmt.Errorf("transport: join %s: %w", addr, err)
	}
	ack, ok := reply.(*xmlmsg.MembershipAck)
	if !ok {
		return fmt.Errorf("transport: %s replied %T to a join", addr, reply)
	}
	name := upperName
	if ack.Upper != "" {
		name = ack.Upper
	}
	return n.SetUpper(&RemotePeer{Name: name, Addr: addr, Lib: n.lib})
}

// LeaveUpper deregisters from the current upper and severs the link on
// the child side. The deregistration travels best-effort: a dead upper
// must not trap a child that wants to shut down cleanly, so the local
// unlink happens regardless and the wire error is reported after.
func (n *Node) LeaveUpper() error {
	n.mu.Lock()
	up := n.agent.Upper()
	n.mu.Unlock()
	if up == nil {
		return nil
	}
	var wireErr error
	if hp, ok := up.(hostedPeer); ok {
		// The lock is free here, so the leave goes through the RemotePeer
		// underneath, not through the wrapper that would release it.
		_, _, err := hp.client().Call(hp.Addr, xmlmsg.NewLeave(n.agent.Name()))
		if err != nil {
			wireErr = fmt.Errorf("transport: leave %s: %w", hp.Addr, err)
		}
	}
	n.mu.Lock()
	n.agent.ClearUpper()
	n.mu.Unlock()
	return wireErr
}

// handleMembership answers a child's join or leave under the node lock.
func (n *Node) handleMembership(m *xmlmsg.Membership) (interface{}, error) {
	if m.Agent == "" {
		return nil, fmt.Errorf("membership %s carries no agent name", m.Op)
	}
	switch m.Op {
	case xmlmsg.MembershipOpJoin:
		if m.Address == "" || m.Port <= 0 {
			return nil, fmt.Errorf("join of %s carries no callback address", m.Agent)
		}
		peer := &RemotePeer{
			Name: m.Agent,
			Addr: fmt.Sprintf("%s:%d", m.Address, m.Port),
			Lib:  n.lib,
		}
		n.mu.Lock()
		// A re-join (daemon restart) replaces the stale link; RemoveLower
		// also drops the old advertisement and breaker history.
		n.agent.RemoveLower(m.Agent)
		err := n.agent.AddLower(hostedPeer{peer, &n.mu})
		n.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return xmlmsg.NewMembershipAck(m.Op, n.agent.Name()), nil
	case xmlmsg.MembershipOpLeave:
		n.mu.Lock()
		ok := n.agent.RemoveLower(m.Agent)
		n.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("leave of %s: not a lower neighbour", m.Agent)
		}
		return xmlmsg.NewMembershipAck(m.Op, n.agent.Name()), nil
	}
	return nil, fmt.Errorf("unknown membership op %q", m.Op)
}
