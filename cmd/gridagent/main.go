// Command gridagent runs one agent of the grid hierarchy as a TCP daemon,
// fronting a performance-driven local scheduler for one resource (§3.2).
// Agents exchange Fig. 5 service advertisements and Fig. 6 requests over
// the XML wire protocol; a hierarchy is assembled by starting one daemon
// per resource and pointing children at their parent. Started with no
// -upper and no -lowers it is the Fig. 3 standalone scheduler: it takes
// Fig. 6 requests directly from users ("a request can be received
// directly from a user when the system functions independently", §2.2),
// always evaluates them against the local resource, and with -exec runs
// a real command when a task starts.
//
// Example — a two-agent hierarchy:
//
//	gridagent -name fast -hw SGIOrigin2000 -nodes 16 -listen 127.0.0.1:7001 \
//	          -lowers slow=127.0.0.1:7002 &
//	gridagent -name slow -hw SunSPARCstation2 -nodes 16 -listen 127.0.0.1:7002 \
//	          -upper fast=127.0.0.1:7001 &
//
// Example — a standalone scheduler that launches real processes:
//
//	gridagent -name cluster1 -hw SunUltra10 -listen 127.0.0.1:7100 \
//	          -exec 'sweep3d=/usr/bin/mpirun -np {nproc} sweep3d'
//
// Submit work with gridsubmit; pulls tolerate a neighbour that has not
// started yet, so startup order does not matter.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/agent"
	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		name    = flag.String("name", "S1", "agent/resource name")
		hwName  = flag.String("hw", "SGIOrigin2000", "hardware model (see -list-hw)")
		nodes   = flag.Int("nodes", 16, "processing nodes in the local resource")
		listen  = flag.String("listen", "127.0.0.1:7001", "listen address")
		upper   = flag.String("upper", "", "upper agent as name=host:port")
		join    = flag.Bool("join", false, "register with -upper over the wire after startup (dynamic membership) and deregister gracefully on shutdown")
		lowers  = flag.String("lowers", "", "comma-separated lower agents as name=host:port")
		policy  = flag.String("policy", "ga", "local scheduling policy: fifo, fifo-fast or ga")
		seed    = flag.Uint64("seed", 1, "GA random seed")
		pull    = flag.Float64("pull", agent.DefaultPullPeriod, "advertisement pull period in seconds")
		push    = flag.Bool("push", false, "also push advertisements to neighbours on freetime changes (§3.1)")
		metrics = flag.String("metrics", "", "serve GET /metrics (Prometheus text, ?format=json) and /healthz on this address; empty (the default) disables telemetry")
		listHW  = flag.Bool("list-hw", false, "list hardware models and exit")
		service = flag.Bool("print-service", false, "print this agent's Fig. 5 service information and exit")

		admission = flag.Int("admission", 0, "admission gate: max executing requests before shedding with a busy reply; 0 disables")
		binary    = flag.Bool("binary", false, "allow peers to negotiate the compact binary codec (XML stays the wire default)")
		execs     multiFlag
	)
	flag.Var(&execs, "exec", "run a real command when a task starts: app=binary args... ({task},{nproc},{app} expand); repeatable")
	flag.Parse()

	if *listHW {
		for _, n := range pace.HardwareNames() {
			hw, _ := pace.LookupHardware(n)
			fmt.Printf("%-20s factor %g\n", hw.Name, hw.Factor)
		}
		return
	}

	hw, ok := pace.LookupHardware(*hwName)
	if !ok {
		fail(fmt.Errorf("unknown hardware %q (try -list-hw)", *hwName))
	}
	engine := pace.NewEngine()
	pol, err := scheduler.NewPolicy(*policy, ga.DefaultConfig(), sim.NewRNG(*seed))
	fail(err)
	cfg := scheduler.Config{
		Name: *name, HW: hw, NumNodes: *nodes, Policy: pol, Engine: engine,
		Environments: []string{"test", "mpi", "pvm"},
	}
	if len(execs) > 0 {
		ce := scheduler.NewCommandExecutor()
		for _, spec := range execs {
			fail(ce.ParseMapping(spec))
		}
		cfg.Executor = ce
		fmt.Printf("gridagent: real execution enabled for %d applications\n", len(execs))
	}
	local, err := scheduler.NewLocal(cfg)
	fail(err)
	a, err := agent.New(local, engine)
	fail(err)
	a.PullPeriod = *pull

	lib := pace.CaseStudyLibrary()

	if *service {
		si := local.ServiceInfo()
		fmt.Printf("agent %s: %s x%d, environments %v, freetime %.0fs\n",
			si.Name, si.HWType, si.NProc, si.Environments, si.Freetime)
		return
	}

	node, err := transport.NewNode(a, lib)
	fail(err)
	node.SetPushEnabled(*push)
	node.SetServerConfig(transport.ServerConfig{MaxInflight: *admission, AllowBinary: *binary})

	var upperName, upperAddr string
	if *upper != "" {
		p, err := parsePeer(*upper, lib)
		fail(err)
		upperName, upperAddr = p.Name, p.Addr
		if !*join {
			fail(node.SetUpper(p))
		}
	} else if *join {
		fail(fmt.Errorf("-join needs an -upper to register with"))
	}
	for _, spec := range splitList(*lowers) {
		p, err := parsePeer(spec, lib)
		fail(err)
		fail(node.AddLower(p))
	}

	node.SetClockOrigin(transport.MidnightOrigin())
	var msrv *telemetry.Server
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		node.SetTelemetry(reg)
		msrv, err = telemetry.StartServer(*metrics, reg, func() error {
			if node.Addr() == "" {
				return fmt.Errorf("agent %s not listening", *name)
			}
			return nil
		})
		fail(err)
	}
	fail(node.Start(*listen))
	fmt.Printf("gridagent %s (%s x%d, %s) listening on %s\n", *name, hw.Name, *nodes, pol.Name(), node.Addr())
	if *join {
		// Dynamic membership: register with the live upper so it links us
		// as a lower neighbour and starts pulling our advertisements.
		fail(node.JoinUpper(upperName, upperAddr))
		fmt.Printf("  joined upper agent: %s\n", *upper)
	} else if *upper != "" {
		fmt.Printf("  upper agent: %s\n", *upper)
	}
	if msrv != nil {
		fmt.Printf("  telemetry: http://%s/metrics\n", msrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gridagent: shutting down")
	if *join {
		// Graceful leave: the upper forgets our advertisement immediately
		// instead of waiting out the TTL, so no new work routes here.
		if err := node.LeaveUpper(); err != nil {
			fmt.Fprintln(os.Stderr, "gridagent: leave:", err)
		}
	}
	if msrv != nil {
		_ = msrv.Close()
	}
	fail(node.Close())
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func parsePeer(spec string, lib *pace.Library) (*transport.RemotePeer, error) {
	name, addr, ok := strings.Cut(spec, "=")
	if !ok || name == "" || addr == "" {
		return nil, fmt.Errorf("bad peer spec %q, want name=host:port", spec)
	}
	return &transport.RemotePeer{Name: name, Addr: addr, Lib: lib}, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridagent:", err)
		os.Exit(1)
	}
}
