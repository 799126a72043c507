// Command gridfarm hosts a whole agent hierarchy as live TCP daemons in
// one process — by default the twelve-agent Fig. 7 case-study grid — so
// the networked system can be driven with gridsubmit without starting
// twelve processes by hand.
//
//	gridfarm -base 7100 &
//	gridsubmit -to 127.0.0.1:7111 -app sweep3d -deadline 10   # arrives at S12
//	curl http://127.0.0.1:7190/metrics                        # live telemetry
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		base    = flag.Int("base", 7100, "first TCP port; agents take consecutive ports")
		host    = flag.String("host", "127.0.0.1", "bind host")
		policy  = flag.String("policy", "ga", "local scheduling policy: fifo, fifo-fast or ga")
		seed    = flag.Uint64("seed", 1, "GA random seed")
		pull    = flag.Float64("pull", 10, "advertisement pull period in seconds")
		push    = flag.Bool("push", false, "event-triggered advertisement pushes")
		metrics = flag.String("metrics", "127.0.0.1:7190", "serve GET /metrics (Prometheus text, ?format=json) and /healthz on this address; empty disables telemetry")

		poolSize  = flag.Int("pool-size", transport.DefaultPoolSize, "keep-alive connections per peer")
		window    = flag.Int("window", transport.DefaultWindow, "max in-flight exchanges per peer")
		shed      = flag.Bool("shed", false, "fail over-window exchanges immediately instead of blocking")
		binary    = flag.Bool("binary", false, "negotiate the compact binary codec between farm nodes (XML stays the wire default)")
		admission = flag.Int("admission", 0, "per-node admission gate: max executing requests before shedding with a busy reply; 0 disables")
	)
	flag.Parse()

	var reg *telemetry.Registry
	if *metrics != "" {
		reg = telemetry.NewRegistry()
	}
	farm, err := transport.StartFarm(transport.FarmConfig{
		Specs:      scenario.Fig7Resources(),
		Host:       *host,
		BasePort:   *base,
		Policy:     *policy,
		Seed:       *seed,
		PullPeriod: *pull,
		Push:       *push,
		Telemetry:  reg,
		Pool:       transport.PoolConfig{Size: *poolSize, Window: *window, Shed: *shed, Binary: *binary},
		Server:     transport.ServerConfig{MaxInflight: *admission, AllowBinary: *binary},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridfarm:", err)
		os.Exit(1)
	}
	var msrv *telemetry.Server
	if reg != nil {
		msrv, err = telemetry.StartServer(*metrics, reg, farm.Healthz)
		if err != nil {
			_ = farm.Close()
			fmt.Fprintln(os.Stderr, "gridfarm:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("gridfarm: %d agents up (%s policy)\n", len(farm.Names()), *policy)
	fmt.Print(farm.Describe())
	if msrv != nil {
		fmt.Printf("telemetry: http://%s/metrics and /healthz\n", msrv.Addr())
	}
	fmt.Println("submit with: gridsubmit -to <addr> -app sweep3d -deadline 60")
	fmt.Println("grow the tree with: gridagent -name S13 -listen 127.0.0.1:7113 -upper <name>=<addr> -join")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gridfarm: shutting down")
	if msrv != nil {
		_ = msrv.Close()
	}
	if err := farm.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gridfarm:", err)
		os.Exit(1)
	}
}
