// Package scheduler implements the performance-driven local grid scheduler
// of §2.2 (Fig. 3): task management and queueing, GA scheduling, a FIFO
// baseline, resource monitoring and test-mode task execution, all driven
// by PACE predictive data. One Local instance manages one grid resource (a
// homogeneous cluster or multiprocessor).
package scheduler

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Policy plans the pending task queue onto the resource. Implementations
// are stateful: the GA carries its previous best solution across calls so
// the evolutionary process absorbs task arrivals and departures (§1), and
// FIFO keeps its first allocation for every task fixed (§4.1).
type Policy interface {
	// Name identifies the policy in reports ("ga", "fifo").
	Name() string
	// Plan schedules tasks onto res starting no earlier than now. tasks
	// are the pending queue in arrival order; res.Avail reflects nodes'
	// commitments. The returned schedule must place every task.
	Plan(tasks []schedule.Task, res schedule.Resource, now float64, predict schedule.Predictor) *schedule.Schedule
	// Forget drops any per-task state for a task that left the queue
	// without being planned again (e.g. deleted by the user).
	Forget(taskID int)
}

// Appender is an optional extension of Policy, for a policy that never
// moves a task once it is planned (FIFO, §4.1). Its Plan places tasks[i]
// at Items[i] with non-decreasing start times, and its plan for a queue is
// its plan for the queue without the last task plus one Append — which
// lets a scheduler that kept the plan take an arrival for the cost of
// that one step. Nothing selects the step: a Local uses it whenever the
// plan it kept is still what Plan would rebuild.
type Appender interface {
	// Append places t, the newest task of the queue, on plan exactly as
	// Plan over the whole queue at instant now would place it. plan is a
	// schedule Reset for the available nodes, extended by this policy's
	// Appends (or copied from its Plan), possibly less a prefix of tasks
	// that have since started as planned; plan.NodeBusy is the
	// availability t is allocated against. phys is Resource.Phys for the
	// plan's nodes.
	Append(plan *schedule.Schedule, t schedule.Task, phys []int, now float64, predict schedule.Predictor)
}

// NewPolicy builds the policy a scenario file, core.Options or a daemon's
// -policy flag names: "fifo" (§4.1 baseline, the best of all 2^n−1
// allocations), "fifo-fast" (its equivalence-tested fast search) or "ga"
// (§2.1, configured by cfg and drawing randomness from rng).
func NewPolicy(name string, cfg ga.Config, rng *sim.RNG) (Policy, error) {
	switch name {
	case "fifo":
		return NewFIFOPolicy(), nil
	case "fifo-fast":
		return NewFastFIFOPolicy(), nil
	case "ga":
		return NewGAPolicy(cfg, rng), nil
	}
	return nil, fmt.Errorf("scheduler: unknown policy %q (want fifo, fifo-fast or ga)", name)
}
