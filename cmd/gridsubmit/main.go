// Command gridsubmit is the user portal (§3.2): it builds Fig. 6 task
// execution requests, submits them to a gridagent or gridfarm daemon,
// and fetches execution results.
//
// Examples:
//
//	gridsubmit -to 127.0.0.1:7001 -app sweep3d -deadline 60
//	gridsubmit -dry-run -app improc -deadline 120      # print the XML only
//	gridsubmit -to 127.0.0.1:7001 -count 50 -seed 7    # §4.1-style batch replay
//	gridsubmit -to 127.0.0.1:7001 -query               # Fig. 5 service info
//	gridsubmit -to 127.0.0.1:7001 -results -email u@g  # poll task results
//	gridsubmit -to 127.0.0.1:7001 -reserve 300,120,2   # book 2 nodes for 120s, 300s out
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/pace"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xmlmsg"
)

func main() {
	var (
		to       = flag.String("to", "127.0.0.1:7001", "agent or scheduler address")
		app      = flag.String("app", "sweep3d", "application model name")
		env      = flag.String("env", "test", "execution environment (test, mpi, pvm)")
		deadline = flag.Float64("deadline", 60, "deadline in seconds from now")
		email    = flag.String("email", "user@example.org", "contact email for results")
		binary   = flag.String("binary", "", "binary path recorded in the request")
		dryRun   = flag.Bool("dry-run", false, "print the request XML and exit without sending")
		listApps = flag.Bool("list-apps", false, "list application models and exit")
		query    = flag.Bool("query", false, "query the target's Fig. 5 service information and exit")
		results  = flag.Bool("results", false, "fetch task execution results from the target and exit")
		reserve  = flag.String("reserve", "", "advance reservation start,duration,nodes (seconds,seconds,count): shop the grid for quotes, hold the earliest window and confirm it into a guaranteed-start task")
		count    = flag.Int("count", 1, "submit a batch: random apps/deadlines drawn from the Table 1 domains")
		interval = flag.Duration("interval", time.Second, "batch pacing between submissions")
		seed     = flag.Uint64("seed", 1, "batch randomness seed")

		wireBinary = flag.Bool("wire-binary", false, "offer the compact binary wire codec (the server must allow it; XML stays the default and the request document is unchanged)")
	)
	flag.Parse()

	client := transport.NewPooledClient(transport.PoolConfig{Binary: *wireBinary})
	peer := &transport.RemotePeer{Name: *to, Addr: *to, Client: client}

	lib := pace.CaseStudyLibrary()
	if *listApps {
		for _, m := range lib.Models() {
			fmt.Printf("%-10s deadline domain [%g, %g]s\n", m.Name, m.DeadlineLo, m.DeadlineHi)
		}
		return
	}
	if *query {
		si, err := peer.PullService()
		fail(err)
		fmt.Printf("%s: %s x%d, environments %v, free at virtual t=%.0fs\n",
			*to, si.HWType, si.NProc, si.Environments, si.Freetime)
		return
	}
	if *results {
		reply, kind, err := client.Call(*to, xmlmsg.NewResultsQuery(*email))
		fail(err)
		if kind != xmlmsg.KindResults {
			fail(fmt.Errorf("unexpected reply kind %q", kind))
		}
		rs := reply.(*xmlmsg.ResultSet)
		if len(rs.Tasks) == 0 {
			fmt.Println("no results")
			return
		}
		for _, tr := range rs.Tasks {
			state := "running"
			if tr.Done {
				if tr.Met {
					state = "done, met deadline"
				} else {
					state = "done, MISSED deadline"
				}
			}
			fmt.Printf("task %-4d %-8s x%-2d on %-6s %s\n", tr.TaskID, tr.App, tr.NProc, tr.Resource, state)
		}
		return
	}
	model, ok := lib.Lookup(*app)
	if !ok {
		fail(fmt.Errorf("unknown application %q (try -list-apps)", *app))
	}
	if *reserve != "" {
		submitReservation(peer, model, *email, *reserve)
		return
	}
	if *count > 1 {
		submitBatch(client, lib, *to, *env, *email, *count, *interval, *seed)
		return
	}

	// Daemons and farms measure virtual time in seconds since local
	// midnight (transport.MidnightOrigin), so the absolute deadline is the
	// portal's reading of that clock plus the requested relative deadline.
	// For the dry run the epoch itself is used, matching Fig. 6.
	deadlineSec := *deadline
	if !*dryRun {
		deadlineSec += time.Since(transport.MidnightOrigin()).Seconds()
	}

	req := xmlmsg.NewRequest(*app, *binary, *app, *env, deadlineSec, *email)
	if !*dryRun {
		// The portal is where requests enter the grid, so it mints the
		// grid-wide request ID (the dry run stays byte-compatible with
		// Fig. 6, which carries no ID).
		req.ReqID = uint64(time.Now().UnixNano())
	}
	data, err := xmlmsg.Marshal(req)
	fail(err)
	if *dryRun {
		fmt.Print(string(data))
		return
	}

	reply, kind, err := client.Call(*to, req)
	fail(err)
	if kind != xmlmsg.KindDispatch {
		fail(fmt.Errorf("unexpected reply kind %q", kind))
	}
	ack := reply.(*xmlmsg.DispatchAck)
	fmt.Printf("dispatched to %s (task %d", ack.Resource, ack.TaskID)
	if ack.Fallback {
		fmt.Printf(", best-effort: no resource met the deadline")
	}
	fmt.Println(")")
}

// submitReservation runs the two-phase reservation protocol against a
// live daemon: flood-quote the hierarchy for a window of the requested
// shape, print every offer, hold the earliest one and confirm it into a
// guaranteed-start task. A confirm failure releases the hold so nothing
// stays booked.
func submitReservation(peer *transport.RemotePeer, app *pace.AppModel, email, spec string) {
	var startRel, duration float64
	var nodes int
	if _, err := fmt.Sscanf(spec, "%g,%g,%d", &startRel, &duration, &nodes); err != nil {
		fail(fmt.Errorf("bad -reserve %q, want start,duration,nodes (e.g. 300,120,2): %v", spec, err))
	}
	if startRel < 0 || duration <= 0 || nodes < 1 {
		fail(fmt.Errorf("bad -reserve %q: start must be >= 0, duration and nodes positive", spec))
	}
	// The daemon measures virtual time from local midnight; the portal
	// anchors the window the same way submissions anchor deadlines.
	now := time.Since(transport.MidnightOrigin()).Seconds()
	quoted, err := peer.HandleReserve(agent.ReserveOp{
		Action: agent.ReserveQuoteOp, Nodes: nodes, Earliest: now + startRel, Duration: duration,
	}, now)
	fail(err)
	if len(quoted.Quotes) == 0 {
		fail(fmt.Errorf("no resource quoted %d nodes for %gs starting +%gs", nodes, duration, startRel))
	}
	fmt.Printf("quotes for %d nodes, %gs window, earliest +%gs:\n", nodes, duration, startRel)
	for _, q := range quoted.Quotes {
		fmt.Printf("  %-8s mask %-4x start +%.0fs\n", q.Resource, q.Mask, q.Start-now)
	}

	// The daemons answer quotes sorted by start, then resource: the first
	// offer is the earliest window the grid can guarantee.
	best := quoted.Quotes[0]
	resvID := uint64(time.Now().UnixNano())
	_, err = peer.HandleReserve(agent.ReserveOp{
		Action: agent.ReserveHoldOp, ResvID: resvID, Resource: best.Resource, Holder: email,
		Mask: best.Mask, Start: best.Start, End: best.End, TTL: 120,
	}, now)
	fail(err)

	confirmed, err := peer.HandleReserve(agent.ReserveOp{
		Action: agent.ReserveConfirmOp, ResvID: resvID, Resource: best.Resource,
		ReqID: uint64(time.Now().UnixNano()), App: app,
	}, now)
	if err != nil {
		// Never leave the window blocked behind a failed confirm.
		release := agent.ReserveOp{Action: agent.ReserveReleaseOp, ResvID: resvID, Resource: best.Resource}
		if _, rerr := peer.HandleReserve(release, now); rerr != nil {
			fmt.Fprintf(os.Stderr, "gridsubmit: release after failed confirm: %v\n", rerr)
		}
		fail(fmt.Errorf("confirm on %s: %v (hold released)", best.Resource, err))
	}
	fmt.Printf("confirmed resv %d on %s: %s task %d guaranteed [%.0f,%.0f) (starts in %.0fs)\n",
		resvID, best.Resource, app.Name, confirmed.TaskID, best.Start, best.End, best.Start-now)
}

// submitBatch replays a §4.1-style workload against a live daemon:
// random applications with deadlines drawn from their Table 1 domains,
// paced at the given interval, reporting where everything landed.
func submitBatch(client *transport.Client, lib *pace.Library, to, env, email string, count int, interval time.Duration, seed uint64) {
	rng := sim.NewRNG(seed)
	models := lib.Models()
	byResource := map[string]int{}
	fallbacks := 0
	for i := 0; i < count; i++ {
		m := models[rng.Intn(len(models))]
		rel := rng.UniformIn(m.DeadlineLo, m.DeadlineHi)
		deadlineSec := time.Since(transport.MidnightOrigin()).Seconds() + rel
		req := xmlmsg.NewRequest(m.Name, "", m.Name, env, deadlineSec, email)
		req.ReqID = uint64(time.Now().UnixNano())
		reply, kind, err := client.Call(to, req)
		fail(err)
		if kind != xmlmsg.KindDispatch {
			fail(fmt.Errorf("unexpected reply kind %q", kind))
		}
		ack := reply.(*xmlmsg.DispatchAck)
		byResource[ack.Resource]++
		if ack.Fallback {
			fallbacks++
		}
		fmt.Printf("[%3d/%d] %-8s deadline +%3.0fs -> %s\n", i+1, count, m.Name, rel, ack.Resource)
		if i < count-1 {
			time.Sleep(interval)
		}
	}
	fmt.Printf("\nbatch complete: %d requests, %d best-effort fallbacks\n", count, fallbacks)
	names := make([]string, 0, len(byResource))
	for n := range byResource {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-6s %d\n", n, byResource[n])
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsubmit:", err)
		os.Exit(1)
	}
}
