package transport

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
	"repro/internal/xmlmsg"
)

// RemotePeer is a TCP stub for a neighbouring agent: it implements
// agent.Peer by speaking the agentgrid XML protocol. Applications travel
// by model name; both sides resolve the name against their own model
// library, matching the paper's assumption that models "are pre-compiled
// and available in all local file systems" (§3.2).
type RemotePeer struct {
	Name string
	Addr string

	// Client, when set, overrides the default exchange client — per-peer
	// timeouts and retry policy for links of different quality. Nil uses
	// the package defaults.
	Client *Client
}

func (p *RemotePeer) client() *Client {
	if p.Client != nil {
		return p.Client
	}
	return defaultClient
}

// PeerName implements agent.Peer.
func (p *RemotePeer) PeerName() string { return p.Name }

// PullService implements agent.Peer.
func (p *RemotePeer) PullService() (scheduler.ServiceInfo, error) {
	reply, _, err := p.client().Call(p.Addr, xmlmsg.NewServiceQuery())
	if err != nil {
		return scheduler.ServiceInfo{}, err
	}
	si, ok := reply.(*xmlmsg.ServiceInfo)
	if !ok {
		return scheduler.ServiceInfo{}, fmt.Errorf("transport: %s replied %T to a service query", p.Name, reply)
	}
	return serviceFromWire(p.Name, si)
}

// serviceFromWire parses a Fig. 5 message into the advertisement of the
// named agent.
func serviceFromWire(name string, m *xmlmsg.ServiceInfo) (scheduler.ServiceInfo, error) {
	ft, err := m.FreetimeSeconds()
	if err != nil {
		return scheduler.ServiceInfo{}, err
	}
	return scheduler.ServiceInfo{
		Name:         name,
		HWType:       m.Local.HWType,
		NProc:        m.Local.NProc,
		Environments: m.Local.Environments,
		Freetime:     ft,
	}, nil
}

// serviceToWire renders an advertisement as a Fig. 5 message from the
// agent name at ep.
func serviceToWire(name string, ep xmlmsg.Endpoint, si scheduler.ServiceInfo) xmlmsg.ServiceInfo {
	msg := xmlmsg.NewServiceInfo(ep, ep, si.HWType, si.NProc, si.Environments, si.Freetime)
	msg.Local.Name = name
	return msg
}

// Handle implements agent.Peer: forward the request for discovery.
func (p *RemotePeer) Handle(req agent.Request, now float64) (agent.Dispatch, error) {
	return p.send(req, xmlmsg.ModeDiscover)
}

// SubmitDirect implements agent.Peer: queue on the remote scheduler
// unconditionally.
func (p *RemotePeer) SubmitDirect(req agent.Request, now float64) (agent.Dispatch, error) {
	return p.send(req, xmlmsg.ModeDirect)
}

// PushAdvertisement implements agent.AdvertSink: deliver a pushed Fig. 5
// advertisement to the remote neighbour.
func (p *RemotePeer) PushAdvertisement(from string, info scheduler.ServiceInfo, now float64) error {
	_, _, err := p.client().Call(p.Addr, serviceToWire(from, xmlmsg.Endpoint{}, info))
	return err
}

func (p *RemotePeer) send(req agent.Request, mode string) (agent.Dispatch, error) {
	reply, _, err := p.client().Call(p.Addr, requestToWire(req, mode))
	if err != nil {
		return agent.Dispatch{}, err
	}
	ack, ok := reply.(*xmlmsg.DispatchAck)
	if !ok {
		return agent.Dispatch{}, fmt.Errorf("transport: %s replied %T to a request", p.Name, reply)
	}
	d, err := dispatchFromWire(ack)
	if err != nil {
		return agent.Dispatch{}, fmt.Errorf("transport: %s acked request %d: %w", p.Name, req.ReqID, err)
	}
	return d, nil
}

// requestToWire renders a request as a wire request in the given
// discovery mode; Node.requestFromWire inverts it.
func requestToWire(req agent.Request, mode string) xmlmsg.Request {
	return xmlmsg.NewWireRequest(req.ReqID, req.App.Name, req.Env, req.Deadline, req.Email, mode, req.Visited)
}

// requestFromWire parses a wire request into an agent request; the app
// model resolves against the node's library.
func (n *Node) requestFromWire(m *xmlmsg.Request) (agent.Request, error) {
	deadline, err := m.Validate()
	if err != nil {
		return agent.Request{}, err
	}
	app, ok := n.lib.Lookup(m.Application.Name)
	if !ok {
		return agent.Request{}, fmt.Errorf("unknown application model %q", m.Application.Name)
	}
	return agent.Request{
		ReqID:    m.ReqID,
		App:      app,
		Env:      m.Requirement.Environment,
		Deadline: deadline,
		Email:    m.Email,
		Visited:  m.Visited,
	}, nil
}

// dispatchToWire renders a dispatch as its acknowledgement;
// dispatchFromWire inverts it.
func dispatchToWire(d agent.Dispatch) xmlmsg.DispatchAck {
	return xmlmsg.NewDispatchAck(d.Resource, d.TaskID, d.ReqID, d.Eta, d.Hops, d.Fallback)
}

// dispatchFromWire parses a dispatch acknowledgement into a dispatch.
func dispatchFromWire(ack *xmlmsg.DispatchAck) (agent.Dispatch, error) {
	eta, err := ack.EtaSeconds()
	if err != nil {
		return agent.Dispatch{}, err
	}
	return agent.Dispatch{
		Resource: ack.Resource,
		TaskID:   ack.TaskID,
		ReqID:    ack.ReqID,
		Eta:      eta,
		Hops:     ack.Hops,
		Fallback: ack.Fallback,
	}, nil
}

// hostedPeer is every neighbour the hosted agent sees: a RemotePeer that
// releases the node lock for the length of each exchange and re-takes it
// before returning. The agent's protocol code is single-threaded and runs
// under the lock; a remote exchange must not, or two nodes calling each
// other would wait on one another's locks until their exchange timeouts.
// The lock is released inside an agent call here and nowhere else, so
// these five methods are the only points where the agent can find its
// state changed. Every call that can reach a peer must hold the lock.
type hostedPeer struct {
	*RemotePeer
	mu *sync.Mutex
}

func (p hostedPeer) PullService() (scheduler.ServiceInfo, error) {
	p.mu.Unlock()
	defer p.mu.Lock()
	return p.RemotePeer.PullService()
}

func (p hostedPeer) Handle(req agent.Request, now float64) (agent.Dispatch, error) {
	p.mu.Unlock()
	defer p.mu.Lock()
	return p.RemotePeer.Handle(req, now)
}

func (p hostedPeer) SubmitDirect(req agent.Request, now float64) (agent.Dispatch, error) {
	p.mu.Unlock()
	defer p.mu.Lock()
	return p.RemotePeer.SubmitDirect(req, now)
}

func (p hostedPeer) PushAdvertisement(from string, info scheduler.ServiceInfo, now float64) error {
	p.mu.Unlock()
	defer p.mu.Lock()
	return p.RemotePeer.PushAdvertisement(from, info, now)
}

func (p hostedPeer) HandleReserve(op agent.ReserveOp, now float64) (agent.ReserveReply, error) {
	p.mu.Unlock()
	defer p.mu.Lock()
	return p.RemotePeer.HandleReserve(op, now)
}

// Node hosts one agent (and its local scheduler) behind a TCP server: a
// listener that parses wire messages, takes the node lock and calls the
// agent, whose neighbours are hostedPeers. Virtual time is wall time
// since the node started, so a networked deployment runs in real time
// like the original system. All agent access is serialised: the agent and
// scheduler types are deliberately single-threaded.
type Node struct {
	mu          sync.Mutex
	pushEnabled bool
	agent       *agent.Agent
	lib         *pace.Library
	start       time.Time
	srv         *Server
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	emails      map[int]string // task ID -> submitting email, for result delivery
	tick        time.Duration
	srvCfg      ServerConfig
}

// NewNode creates a node for the agent; Start brings up the server. The
// virtual clock origin defaults to the node's start instant; a deployment
// of several daemons plus a portal should share an origin via
// SetClockOrigin (cmd/gridagent, StartFarm and cmd/gridsubmit use local
// midnight) so absolute deadlines mean the same thing everywhere.
func NewNode(a *agent.Agent, lib *pace.Library) (*Node, error) {
	if a == nil || lib == nil {
		return nil, fmt.Errorf("transport: node needs an agent and a library")
	}
	return &Node{
		agent: a, lib: lib, start: time.Now(), stop: make(chan struct{}),
		emails: map[int]string{}, tick: DefaultTickPeriod,
	}, nil
}

// SetClockOrigin anchors virtual time 0 at t. Call before Start.
func (n *Node) SetClockOrigin(t time.Time) { n.start = t }

// SetPushEnabled turns event-triggered advertisement pushes (§3.1) on or
// off: after accepting work, the node pushes its advertisement to all
// neighbours once its freetime drifts past the agent's PushThreshold.
func (n *Node) SetPushEnabled(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pushEnabled = on
}

// CachedServiceNames lists the agent's service set under the node lock.
func (n *Node) CachedServiceNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.agent.CachedServiceNames()
}

// MidnightOrigin returns today's local midnight, the shared clock origin
// used by the CLI daemons and the portal.
func MidnightOrigin() time.Time {
	now := time.Now()
	return time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location())
}

// Now returns the node's virtual time: wall seconds since the clock
// origin.
func (n *Node) Now() float64 { return time.Since(n.start).Seconds() }

// Agent returns the hosted agent. Callers must not use it concurrently
// with a started node, and must wire neighbours through the node's
// SetUpper/AddLower, never the agent's: a bare RemotePeer would hold the
// node lock across its exchanges.
func (n *Node) Agent() *agent.Agent { return n.agent }

// SetUpper wires a remote upper neighbour under the node lock.
func (n *Node) SetUpper(p *RemotePeer) error { return n.link(p, n.agent.SetUpper) }

// AddLower wires a remote lower neighbour under the node lock.
func (n *Node) AddLower(p *RemotePeer) error { return n.link(p, n.agent.AddLower) }

// link hands the agent its neighbour wrapped as a hostedPeer.
func (n *Node) link(p *RemotePeer, wire func(agent.Peer) error) error {
	if p == nil {
		return fmt.Errorf("transport: nil neighbour")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return wire(hostedPeer{p, &n.mu})
}

// Stats returns the hosted agent's counters under the node lock.
func (n *Node) Stats() agent.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.agent.Stats()
}

// SetTelemetry registers the node's full stack — agent counters,
// scheduler queue/plan instruments, the GA policy's counters and the
// PACE engine's cache statistics — on reg under the node's resource
// name. Call before Start: the registrations write agent and scheduler
// state. Live scrapes of reg afterwards read only atomic instruments
// and snapshot-time collectors, so they never contend with the node
// lock.
func (n *Node) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	name := n.agent.Name()
	n.agent.RegisterMetrics(reg)
	local := n.agent.Local()
	local.SetMetrics(scheduler.NewMetrics(reg, name))
	local.Engine().RegisterMetrics(reg, "resource", name)
	if gp, ok := local.Policy().(*scheduler.GAPolicy); ok {
		gp.RegisterMetrics(reg, name)
	}
}

// DefaultTickPeriod is how often an idle node advances its scheduler
// clock so planned task starts (and their executor launches) happen on
// time instead of waiting for the next incoming message.
const DefaultTickPeriod = 250 * time.Millisecond

// SetTickPeriod overrides the clock tick; 0 disables ticking (promotions
// then only occur when messages arrive). Call before Start.
func (n *Node) SetTickPeriod(d time.Duration) { n.tick = d }

// SetServerConfig sets the node server's admission gate and codec
// policy. Call before Start.
func (n *Node) SetServerConfig(cfg ServerConfig) { n.srvCfg = cfg }

// Start listens on addr and begins the periodic advertisement pull loop
// and the scheduler clock tick.
func (n *Node) Start(addr string) error {
	srv, err := ServeWith(addr, n.handle, n.srvCfg)
	if err != nil {
		return err
	}
	n.srv = srv
	period := time.Duration(n.agent.PullPeriod * float64(time.Second))
	if period <= 0 {
		period = time.Duration(agent.DefaultPullPeriod) * time.Second
	}
	// The advertisement refresh is the agent's own Pull, each exchange
	// outside the node lock (see hostedPeer).
	n.every(period, func() { n.agent.Pull(n.Now()) })
	if n.tick != 0 {
		n.every(n.tick, func() { n.advance() })
	}
	return nil
}

// every starts a loop that runs fn under the node lock at once — the
// first pull primes the cache so early requests can be forwarded — and
// then once per period until Close.
func (n *Node) every(period time.Duration, fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			n.mu.Lock()
			fn()
			n.mu.Unlock()
			select {
			case <-n.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Addr returns the listen address after Start.
func (n *Node) Addr() string { return n.srv.Addr() }

// Close stops the pull and tick loops and the server. Idempotent: a
// daemon's signal handler and its deferred shutdown may both reach it.
func (n *Node) Close() error {
	var err error
	n.stopOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		if n.srv != nil {
			err = n.srv.Close()
		}
	})
	return err
}

// advance brings the scheduler's clock up to wall time, so freetime and
// eq. 10 estimates are measured against real elapsed time, and returns
// it. Caller holds the node lock, which keeps successive readings ordered.
func (n *Node) advance() float64 {
	now := n.Now()
	n.agent.Local().AdvanceTo(now)
	return now
}

// handle translates one wire message into an agent call.
func (n *Node) handle(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
	switch m := msg.(type) {
	case *xmlmsg.Query:
		switch m.What {
		case "service":
			n.mu.Lock()
			defer n.mu.Unlock()
			n.advance()
			return n.advertisement("")
		case "results":
			return n.results(m.Email), nil
		}
		return nil, fmt.Errorf("unknown query %q", m.What)

	case *xmlmsg.ServiceInfo:
		// A pushed advertisement from a neighbour (§3.1 push strategy).
		if m.Local.Name == "" {
			return nil, fmt.Errorf("pushed advertisement carries no sender name")
		}
		pushed, err := serviceFromWire(m.Local.Name, m)
		if err != nil {
			return nil, err
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		_ = n.agent.PushAdvertisement(m.Local.Name, pushed, n.Now())
		// Reply with our own advertisement: pushes double as exchanges.
		return n.advertisement(n.agent.Name())

	case *xmlmsg.Request:
		req, err := n.requestFromWire(m)
		if err != nil {
			return nil, err
		}
		d, err := n.dispatch(req, m.Mode)
		if err != nil {
			return nil, err
		}
		return dispatchToWire(d), nil

	case *xmlmsg.Membership:
		return n.handleMembership(m)

	case *xmlmsg.Reserve:
		op, err := n.reserveOpFromWire(m)
		if err != nil {
			return nil, err
		}
		reply, err := n.reserveDispatch(op)
		if err != nil {
			return nil, err
		}
		return reserveAckToWire(reply), nil
	}
	return nil, fmt.Errorf("unsupported message kind %q", kind)
}

// advertisement is the node's own Fig. 5 message as a reply, signed name
// (the figure's plain query reply carries none). Caller holds the lock.
func (n *Node) advertisement(name string) (interface{}, error) {
	si, err := n.agent.PullService()
	if err != nil {
		return nil, err
	}
	ep := xmlmsg.Endpoint{Address: "127.0.0.1", Port: n.srv.Port()}
	return serviceToWire(name, ep, si), nil
}

// results builds the answer to a results query: every task this node's
// scheduler has started, marked done once its (test-mode) completion time
// passes, optionally filtered by submitting email.
func (n *Node) results(email string) xmlmsg.ResultSet {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.advance()
	local := n.agent.Local()
	recs := local.Records()
	recs = append(recs, local.Planned()...) // queued tasks report planned times
	var tasks []xmlmsg.TaskResult
	for _, r := range recs {
		owner := n.emails[r.TaskID]
		if email != "" && owner != email {
			continue
		}
		app := ""
		if r.App != nil {
			app = r.App.Name
		}
		tasks = append(tasks, xmlmsg.TaskResult{
			App:      app,
			TaskID:   r.TaskID,
			Resource: r.Resource,
			NProc:    bits.OnesCount64(r.Mask),
			Start:    xmlmsg.FormatVirtual(r.Start),
			End:      xmlmsg.FormatVirtual(r.End),
			Deadline: xmlmsg.FormatVirtual(r.Deadline),
			Met:      r.End <= r.Deadline,
			Done:     r.End <= now,
			Email:    owner,
		})
	}
	return xmlmsg.NewResultSet(tasks)
}

// dispatch hands the request to the agent — discovery, or the local queue
// outright for a direct submission — and, when the task landed on this
// node's resource, records whom the result is for and lets the agent push
// its changed advertisement.
func (n *Node) dispatch(req agent.Request, mode string) (agent.Dispatch, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.advance()
	handle := n.agent.HandleRequest
	if mode == xmlmsg.ModeDirect {
		handle = n.agent.SubmitDirect
	}
	d, err := handle(req, now)
	if err == nil && d.Resource == n.agent.Name() {
		n.emails[d.TaskID] = req.Email
		if n.pushEnabled {
			n.agent.MaybePush(now)
		}
	}
	return d, err
}
