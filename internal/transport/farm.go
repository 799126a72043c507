package transport

import (
	"fmt"
	"sort"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Farm hosts a whole agent hierarchy as networked TCP nodes in one
// process: one listener per resource, neighbours wired through
// RemotePeer stubs, so every advertisement and discovery exchange crosses
// the real wire protocol. It turns the Fig. 7 case-study grid (or any
// core.ResourceSpec set) into a live deployment that gridsubmit can talk
// to.
type Farm struct {
	nodes   map[string]*Node
	order   []string
	lib     *pace.Library
	reg     *telemetry.Registry
	clients []*Client
}

// FarmConfig configures StartFarm.
type FarmConfig struct {
	Specs      []core.ResourceSpec
	Host       string  // bind host; defaults to 127.0.0.1 (ephemeral ports)
	BasePort   int     // first port; 0 = ephemeral
	Policy     string  // "ga" (default), "fifo" or "fifo-fast"
	Seed       uint64  // GA seed
	PullPeriod float64 // advertisement pull period; defaults to §4.1's 10 s
	Push       bool    // event-triggered advertisement pushes
	Library    *pace.Library

	// Telemetry, when set, instruments every node (agent, scheduler, GA,
	// engine, outbound exchanges, connection pools) on one shared
	// registry — the registry a daemon serves at /metrics. Nil runs the
	// farm uninstrumented.
	Telemetry *telemetry.Registry

	// Pool tunes each node's outbound connection pool (size, in-flight
	// window, shed-vs-block, binary codec offer). The zero value takes
	// the pool defaults.
	Pool PoolConfig

	// Server is applied to every node's listener: admission gate,
	// binary-codec permission and dedup window.
	Server ServerConfig
}

// StartFarm brings up one TCP node per resource spec, wires the hierarchy
// through remote peers, and returns the running farm. Close shuts all
// nodes down.
func StartFarm(cfg FarmConfig) (*Farm, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("transport: farm needs resources")
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.Library == nil {
		cfg.Library = pace.CaseStudyLibrary()
	}
	if cfg.Policy == "" {
		cfg.Policy = "ga"
	}

	f := &Farm{nodes: map[string]*Node{}, lib: cfg.Library, reg: cfg.Telemetry}
	master := sim.NewRNG(cfg.Seed)
	// Start every node first (ephemeral ports must be known before
	// neighbours can be wired).
	for i, spec := range cfg.Specs {
		hw, ok := pace.LookupHardware(spec.Hardware)
		if !ok {
			_ = f.Close()
			return nil, fmt.Errorf("transport: resource %q: unknown hardware %q", spec.Name, spec.Hardware)
		}
		pol, err := scheduler.NewPolicy(cfg.Policy, ga.DefaultConfig(), master.Split())
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		// One engine per node, shared by the scheduler and its agent as in
		// gridagent, so the agent's eq. 10 estimates hit the §2.2
		// evaluation cache the scheduler's plans filled.
		engine := pace.NewEngine()
		local, err := scheduler.NewLocal(scheduler.Config{
			Name: spec.Name, HW: hw, NumNodes: spec.Nodes, Policy: pol,
			Engine: engine, Environments: spec.Environments,
		})
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		a, err := agent.New(local, engine)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		if cfg.PullPeriod > 0 {
			a.PullPeriod = cfg.PullPeriod
		}
		node, err := NewNode(a, cfg.Library)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		node.SetPushEnabled(cfg.Push)
		node.SetTelemetry(cfg.Telemetry)
		node.SetServerConfig(cfg.Server)
		addr := fmt.Sprintf("%s:0", cfg.Host)
		if cfg.BasePort > 0 {
			addr = fmt.Sprintf("%s:%d", cfg.Host, cfg.BasePort+i)
		}
		if err := node.Start(addr); err != nil {
			_ = f.Close()
			return nil, err
		}
		f.nodes[spec.Name] = node
		f.order = append(f.order, spec.Name)
	}
	// Wire the hierarchy over the wire protocol. Each node's outbound
	// exchanges go through one pooled client, labelled
	// (when instrumented) with the *calling* node's name, so retry storms
	// and pool churn are attributable to the node experiencing them.
	clients := map[string]*Client{}
	clientFor := func(name string) *Client {
		c, ok := clients[name]
		if !ok {
			pool := cfg.Pool
			pool.Metrics = NewPoolMetrics(cfg.Telemetry, "resource", name)
			c = NewPooledClient(pool)
			c.Metrics = NewClientMetrics(cfg.Telemetry, "resource", name)
			clients[name] = c
			f.clients = append(f.clients, c)
		}
		return c
	}
	for _, spec := range cfg.Specs {
		if spec.Parent == "" {
			continue
		}
		child, parent := f.nodes[spec.Name], f.nodes[spec.Parent]
		if parent == nil {
			_ = f.Close()
			return nil, fmt.Errorf("transport: resource %q: unknown parent %q", spec.Name, spec.Parent)
		}
		up := &RemotePeer{Name: spec.Parent, Addr: parent.Addr(), Lib: cfg.Library, Client: clientFor(spec.Name)}
		if err := child.SetUpper(up); err != nil {
			_ = f.Close()
			return nil, err
		}
		down := &RemotePeer{Name: spec.Name, Addr: child.Addr(), Lib: cfg.Library, Client: clientFor(spec.Parent)}
		if err := parent.AddLower(down); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Gauge("grid_agents").Set(float64(len(cfg.Specs)))
	}
	return f, nil
}

// Registry returns the telemetry registry the farm was started with,
// nil when uninstrumented.
func (f *Farm) Registry() *telemetry.Registry { return f.reg }

// Healthz reports farm liveness for the /healthz endpoint: an error
// when any node's listener is gone.
func (f *Farm) Healthz() error {
	for _, name := range f.order {
		n := f.nodes[name]
		if n.srv == nil {
			return fmt.Errorf("node %s has no listener", name)
		}
	}
	return nil
}

// Close shuts every node down and retires the pooled connections; it is
// also how a half-started farm is torn down when StartFarm fails.
func (f *Farm) Close() error {
	var first error
	for _, name := range f.order {
		if err := f.nodes[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range f.clients {
		c.Pool.Close()
	}
	return first
}

// Node returns the named node.
func (f *Farm) Node(name string) (*Node, bool) {
	n, ok := f.nodes[name]
	return n, ok
}

// Addr returns the named node's listen address.
func (f *Farm) Addr(name string) (string, bool) {
	n, ok := f.nodes[name]
	if !ok {
		return "", false
	}
	return n.Addr(), true
}

// Names returns the resource names in start order.
func (f *Farm) Names() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Describe lists the farm's endpoints, sorted by name.
func (f *Farm) Describe() string {
	names := f.Names()
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%-6s %s\n", n, f.nodes[n].Addr())
	}
	return s
}
