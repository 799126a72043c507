package schedule_test

import (
	"fmt"

	"repro/internal/pace"
	"repro/internal/schedule"
)

// Build times a two-part solution string against a resource: tasks run in
// the ordering part's sequence, each on the node set its mapping part
// allocates, starting in unison when all of those nodes are free.
func ExampleBuild() {
	tasks := []schedule.Task{
		{ID: 1, Deadline: 100},
		{ID: 2, Deadline: 100},
		{ID: 3, Deadline: 100},
	}
	sol := schedule.Solution{
		Order: []int{0, 1, 2},
		Maps:  []uint64{0b11, 0b10, 0b01}, // task 1 on both nodes, 2 and 3 on one each
	}
	tenSeconds := func(*pace.AppModel, int) float64 { return 10 }
	s := schedule.Build(sol, tasks, schedule.NewResource(2), 0, tenSeconds)
	for _, it := range s.Items {
		fmt.Printf("task %d: nodes %v, [%g, %g]\n", tasks[it.TaskPos].ID, it.Nodes(), it.Start, it.End)
	}
	fmt.Printf("makespan %g\n", s.Makespan)
	// Output:
	// task 1: nodes [0 1], [0, 10]
	// task 2: nodes [1], [10, 20]
	// task 3: nodes [0], [10, 20]
	// makespan 20
}

// The combined cost of eq. 8 weighs makespan, front-weighted idle time
// and deadline overruns.
func ExampleProblem_Breakdown() {
	tasks := []schedule.Task{{ID: 1, Deadline: 6}}
	sol := schedule.Solution{Order: []int{0}, Maps: []uint64{0b01}}
	tenSeconds := func(*pace.AppModel, int) float64 { return 10 }
	p := schedule.NewProblem(tasks, schedule.NewResource(2), 0, tenSeconds)
	p.Weights = schedule.CostWeights{Makespan: 1, Idle: 1, Deadline: 1}
	p.FrontWeighted = false

	c := p.Breakdown(sol)
	fmt.Printf("makespan %g, idle %g, contract penalty %g, combined %g\n",
		c.Makespan, c.Idle, c.ContractPen, c.Combined)
	// Output:
	// makespan 10, idle 5, contract penalty 4, combined 6.333333333333333
}
