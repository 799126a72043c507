package audit

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// membershipRun extends the clean two-resource run with a consistent
// dynamic-hierarchy episode: S3 joins at t=2, a rehome chain moves S2 at
// t=5, and S3 leaves again at t=7 with nothing dispatched to it after.
func membershipRun(t *testing.T) Run {
	t.Helper()
	run := cleanRun(t)
	run.Events = append(run.Events,
		trace.Event{Time: 2, Kind: trace.KindJoin, Agent: "S3", Resource: "S3", Detail: "parent=S1"},
		trace.Event{Time: 5, Kind: trace.KindRehomePropose, Agent: "S2", Detail: "from=S1 to=S3"},
		trace.Event{Time: 5, Kind: trace.KindRehomeDetach, Agent: "S2", Detail: "from=S1"},
		trace.Event{Time: 5, Kind: trace.KindRehomeAttach, Agent: "S2", Detail: "to=S3"},
		trace.Event{Time: 7, Kind: trace.KindLeave, Agent: "S3", Resource: "S3", Detail: "parent=S1"},
	)
	return run
}

func TestMembershipCleanRunPasses(t *testing.T) {
	res := Check(membershipRun(t))
	if !res.OK() {
		t.Fatalf("clean membership run has violations: %v", res.Violations)
	}
	c := res.Counts
	if c.Joins != 1 || c.Leaves != 1 || c.Rehomes != 1 || c.RehomeProposes != 1 {
		t.Fatalf("membership counts: %+v", c)
	}
}

// (g1) no post-departure work: a dispatch strictly after the resource's
// leave instant is a violation; one at the leave instant is not (the
// drain happens in the same simulator event as the leave).
func TestMembershipDetectsDispatchAfterLeave(t *testing.T) {
	run := membershipRun(t)
	run.Events = append(run.Events,
		trace.Event{Time: 8, Kind: trace.KindArrive, ReqID: 9, Agent: "S1", App: "fft"},
		trace.Event{Time: 8, Kind: trace.KindDispatch, ReqID: 9, Agent: "S1", Resource: "S3", TaskID: 1, App: "fft"},
	)
	res := Check(run)
	if !hasCheck(res, "membership") {
		t.Fatalf("dispatch onto departed S3 not flagged: %v", res.Violations)
	}
}

func TestMembershipRejoinLiftsDepartureBar(t *testing.T) {
	run := membershipRun(t)
	run.Events = append(run.Events,
		trace.Event{Time: 9, Kind: trace.KindJoin, Agent: "S3", Resource: "S3", Detail: "parent=S1"},
		trace.Event{Time: 10, Kind: trace.KindArrive, ReqID: 9, Agent: "S1", App: "fft"},
		trace.Event{Time: 10, Kind: trace.KindDispatch, ReqID: 9, Agent: "S1", Resource: "S3", TaskID: 1, App: "fft"},
		trace.Event{Time: 11, Kind: trace.KindStart, ReqID: 9, Resource: "S3", TaskID: 1, App: "fft"},
		trace.Event{Time: 12, Kind: trace.KindComplete, ReqID: 9, Resource: "S3", TaskID: 1, App: "fft"},
	)
	res := Check(run)
	for _, v := range res.Violations {
		if v.Check == "membership" {
			t.Fatalf("dispatch after a re-join flagged: %v", v)
		}
	}
}

// (g2) atomic re-homing: detaches and attaches must pair up with a
// same-instant propose, and no chain may end the run half-done.
func TestMembershipDetectsBrokenRehomeChains(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"detach without propose", []trace.Event{
			{Time: 6, Kind: trace.KindRehomeDetach, Agent: "S2", Detail: "from=S1"},
		}, "without a same-instant rehome-propose"},
		{"attach without detach", []trace.Event{
			{Time: 6, Kind: trace.KindRehomePropose, Agent: "S2", Detail: "from=S1 to=S3"},
			{Time: 6, Kind: trace.KindRehomeAttach, Agent: "S2", Detail: "to=S3"},
		}, "without a same-instant rehome-detach"},
		{"chain never attaches", []trace.Event{
			{Time: 6, Kind: trace.KindRehomePropose, Agent: "S2", Detail: "from=S1 to=S3"},
			{Time: 6, Kind: trace.KindRehomeDetach, Agent: "S2", Detail: "from=S1"},
		}, "never completed its attach"},
		{"detach at a different instant", []trace.Event{
			{Time: 6, Kind: trace.KindRehomePropose, Agent: "S2", Detail: "from=S1 to=S3"},
			{Time: 6.5, Kind: trace.KindRehomeDetach, Agent: "S2", Detail: "from=S1"},
		}, "without a same-instant rehome-propose"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := membershipRun(t)
			run.Events = append(run.Events, c.events...)
			res := Check(run)
			found := false
			for _, v := range res.Violations {
				if v.Check == "membership" && strings.Contains(v.Detail, c.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no membership violation containing %q in %v", c.want, res.Violations)
			}
		})
	}
}

// (g3) lifecycle sanity: leaving requires presence, and only once.
func TestMembershipDetectsLifecycleViolations(t *testing.T) {
	t.Run("leave without join", func(t *testing.T) {
		run := membershipRun(t)
		run.Events = append(run.Events,
			trace.Event{Time: 8, Kind: trace.KindLeave, Agent: "ghost", Resource: "ghost"},
		)
		res := Check(run)
		found := false
		for _, v := range res.Violations {
			if v.Check == "membership" && strings.Contains(v.Detail, "without ever joining") {
				found = true
			}
		}
		if !found {
			t.Fatalf("leave of never-joined agent not flagged: %v", res.Violations)
		}
	})
	t.Run("double leave", func(t *testing.T) {
		run := membershipRun(t)
		// S3 left at t=7 in the base run; a second leave without a
		// re-join is both "already left" and "not present".
		run.Events = append(run.Events,
			trace.Event{Time: 8, Kind: trace.KindLeave, Agent: "S3", Resource: "S3"},
		)
		res := Check(run)
		found := false
		for _, v := range res.Violations {
			if v.Check == "membership" && strings.Contains(v.Detail, "already left") {
				found = true
			}
		}
		if !found {
			t.Fatalf("double leave not flagged: %v", res.Violations)
		}
	})
	t.Run("static resources may leave", func(t *testing.T) {
		// S2 is in the node map, so its leave needs no prior join event.
		run := membershipRun(t)
		run.Events = append(run.Events,
			trace.Event{Time: 9, Kind: trace.KindLeave, Agent: "S2", Resource: "S2"},
		)
		res := Check(run)
		if !res.OK() {
			t.Fatalf("static resource leave flagged: %v", res.Violations)
		}
	})
}

// (h) no placement on a crashed agent, on forged streams: a dispatch,
// migrate-redispatch or reserve-confirm between an agent's peerdown and
// peerup is flagged; a start there is not (running tasks survive an
// agent crash), and neither is a placement after the peerup.
func TestCrashDetectsPlacementOnDownAgent(t *testing.T) {
	down := func(at float64, name string) trace.Event {
		return trace.Event{Time: at, Kind: trace.KindPeerDown, Agent: name}
	}
	up := func(at float64, name string) trace.Event {
		return trace.Event{Time: at, Kind: trace.KindPeerUp, Agent: name}
	}
	// insert puts evs before position i of run's stream.
	insert := func(run Run, i int, evs ...trace.Event) Run {
		run.Events = slices.Insert(run.Events, i, evs...)
		return run
	}
	cases := []struct {
		name  string
		run   Run
		flags []string // the crash violations' details, in order
	}{
		{"dispatch while down", insert(cleanRun(t), 2, down(0.5, "S2")),
			[]string{"dispatch on S2 at t=1, while the agent was down since t=0.5"}},
		{"dispatch after peerup", insert(cleanRun(t), 2, down(0.5, "S2"), up(0.8, "S2")), nil},
		{"start while down", insert(cleanRun(t), 4, down(1.5, "S2")), nil},
		{"migrate-redispatch while down", insert(migratedRun(t), 5, down(2.5, "S1")),
			[]string{"migrate-redispatch on S1 at t=3, while the agent was down since t=2.5"}},
		{"reserve-confirm while down", insert(reservedRun(t), 0, down(0, "S1")),
			[]string{
				"reserve-confirm on S1 at t=0, while the agent was down since t=0",
				"dispatch on S1 at t=0, while the agent was down since t=0",
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []string
			for _, v := range Check(c.run).Violations {
				if v.Check == "crash" {
					got = append(got, v.Detail)
				}
			}
			if strings.Join(got, "\n") != strings.Join(c.flags, "\n") {
				t.Fatalf("crash violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.flags, "\n"))
			}
		})
	}
}
