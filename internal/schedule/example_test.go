package schedule_test

import (
	"fmt"
	"log"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Build times a two-part solution string against a resource: tasks run in
// the ordering part's sequence, each on the node set its mapping part
// allocates, starting in unison when all of those nodes are free.
func ExampleProblem_Build() {
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
	s := schedule.NewProblem(tasks, schedule.NewResource(2), 0, tenSeconds).Build(sol)
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

// Fig. 2: the paper's solution string, ordering 3 5 2 1 6 4 and one node
// map per task, timed on a five-processor resource with uniform
// ten-second tasks, and its Gantt chart (task glyphs are base-1, as in
// the figure).
func ExampleGantt() {
	parse := func(s string) uint64 {
		var m uint64
		for i, c := range s {
			if c == '1' {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	sol := schedule.Solution{
		Order: []int{2, 4, 1, 0, 5, 3}, // base-0
		Maps: []uint64{
			parse("01000"), // task #1 -> P2
			parse("11110"), // task #2 -> P1..P4
			parse("11010"), // task #3 -> P1,P2,P4
			parse("01001"), // task #4 -> P2,P5
			parse("01010"), // task #5 -> P2,P4
			parse("10111"), // task #6 -> P1,P3,P4,P5
		},
	}
	tasks := make([]schedule.Task, 6)
	for i := range tasks {
		tasks[i] = schedule.Task{ID: i + 1, Deadline: 1e9}
	}
	tenSeconds := func(*pace.AppModel, int) float64 { return 10 }
	s := schedule.NewProblem(tasks, schedule.NewResource(5), 0, tenSeconds).Build(sol)
	fmt.Println(sol)
	fmt.Print(schedule.Gantt(s, 64))
	// Output:
	// order: 2 4 1 0 5 3
	// maps: 2:1011 4:1010 1:1111 0:10 5:11101 3:10010
	// time 0.0 .. 50.0 (makespan 50.0)
	// P5  |......................................66666666666664444444444444|
	// P4  |333333333333555555555555522222222222226666666666666.............|
	// P3  |.........................22222222222226666666666666.............|
	// P2  |3333333333335555555555555222222222222211111111111114444444444444|
	// P1  |333333333333.............22222222222226666666666666.............|
	//     +----------------------------------------------------------------+ time ->
}

// The GA against an arrival-order greedy plan of the same queue of
// Table 1 applications on one 16-node SunUltra5 resource: the packing
// difference that experiment 2 measures.
func Example_gaVersusGreedy() {
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	pred := func(app *pace.AppModel, k int) float64 { return engine.MustPredict(app, pace.SunUltra5, k) }
	var tasks []schedule.Task
	for i, name := range []string{"sweep3d", "improc", "fft", "jacobi", "memsort", "cpi", "closure", "improc"} {
		m, ok := lib.Lookup(name)
		if !ok {
			log.Fatalf("no model %s", name)
		}
		tasks = append(tasks, schedule.Task{ID: i + 1, App: m, Deadline: 150})
	}
	p := schedule.NewProblem(tasks, schedule.NewResource(16), 0, pred)

	var greedy schedule.Solution
	p.GreedySeed(&greedy)
	gc := p.Breakdown(greedy)
	fmt.Printf("arrival-order greedy: makespan %.0fs, weighted idle %.0fs, contract penalty %.0fs\n",
		gc.Makespan, gc.Idle, gc.ContractPen)
	fmt.Println(schedule.Gantt(p.Build(greedy), 72))

	cfg := ga.DefaultConfig()
	cfg.MaxGenerations = 120
	result := ga.Run[schedule.Solution](p, cfg, sim.NewRNG(7), []schedule.Solution{greedy})
	bc := p.Breakdown(result.Best)
	fmt.Printf("GA after %d generations (%d cost requests, %d evaluated): makespan %.0fs, weighted idle %.0fs, contract penalty %.0fs\n",
		result.Generations, result.CostEvals, result.Evaluations, bc.Makespan, bc.Idle, bc.ContractPen)
	fmt.Println(schedule.Gantt(p.Build(result.Best), 72))
	fmt.Printf("combined cost: greedy %.1f, GA %.1f\n", gc.Combined, bc.Combined)
	// Output:
	// arrival-order greedy: makespan 124s, weighted idle 33s, contract penalty 0s
	// time 0.0 .. 124.0 (makespan 124.0)
	// P16 |....22222222222222222222222.......555555555555..888888888888888888888888|
	// P15 |1111333333333333333333333..444444466666666....77........................|
	// P14 |1111333333333333333333333..444444466666666....77........................|
	// P13 |1111333333333333333333333..444444466666666....77........................|
	// P12 |1111333333333333333333333..444444466666666....77........................|
	// P11 |1111333333333333333333333..444444466666666....77........................|
	// P10 |1111333333333333333333333..444444466666666....77........................|
	// P9  |1111333333333333333333333..444444466666666....77........................|
	// P8  |1111333333333333333333333..444444466666666....77........................|
	// P7  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P6  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P5  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P4  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P3  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P2  |111122222222222222222222222444444455555555555577888888888888888888888888|
	// P1  |111122222222222222222222222444444455555555555577888888888888888888888888|
	//     +------------------------------------------------------------------------+ time ->
	// GA after 65 generations (3250 cost requests, 2431 evaluated): makespan 126s, weighted idle 25s, contract penalty 0s
	// time 0.0 .. 126.0 (makespan 126.0)
	// P16 |444444777....55555555555522222222222222222222222888888888888888888888888|
	// P15 |4444447771111333333333333333333333......................................|
	// P14 |4444447771111333333333333333333333666666666666..........................|
	// P13 |4444447771111333333333333333333333......................................|
	// P12 |4444447771111333333333333333333333666666666666..888888888888888888888888|
	// P11 |4444447771111333333333333333333333666666666666..888888888888888888888888|
	// P10 |4444447771111333333333333333333333666666666666..888888888888888888888888|
	// P9  |4444447771111333333333333333333333666666666666..........................|
	// P8  |4444447771111333333333333333333333666666666666..........................|
	// P7  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P6  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P5  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P4  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P3  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P2  |444444777111155555555555522222222222222222222222888888888888888888888888|
	// P1  |444444777111155555555555522222222222222222222222........................|
	//     +------------------------------------------------------------------------+ time ->
	// combined cost: greedy 37.2, GA 33.3
}
