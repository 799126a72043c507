// Gantt: the Fig. 2 walkthrough. Builds the paper's example solution
// string — ordering 3 5 2 1 6 4 with a node map per task — times it on a
// five-processor resource, renders the Gantt chart, and then lets the GA
// improve a batch of real application models against a FIFO plan of the
// same queue, printing both charts and their cost breakdowns.
//
//	go run ./examples/gantt
package main

import (
	"fmt"
	"log"

	"repro/internal/ga"
	"repro/internal/pace"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func main() {
	fig2()
	fmt.Println()
	gaVersusFIFO()
}

// fig2 reproduces the figure's solution string and schedule shape.
func fig2() {
	fmt.Println("=== Fig. 2: a solution string and its schedule ===")
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
		// Task ordering 3 5 2 1 6 4 (base-1 in the figure).
		Order: []int{2, 4, 1, 0, 5, 3},
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
	// Uniform ten-second tasks keep the chart legible.
	pred := func(*pace.AppModel, int) float64 { return 10 }
	s := schedule.Build(sol, tasks, schedule.NewResource(5), 0, pred)
	fmt.Println(sol)
	fmt.Println(schedule.Gantt(s, 64))
}

// gaVersusFIFO schedules the same queue of Table 1 applications with an
// arrival-order greedy plan and with the GA, showing the packing
// difference the paper's experiment 2 measures.
func gaVersusFIFO() {
	fmt.Println("=== GA vs greedy on one 16-node SunUltra5 resource ===")
	lib := pace.CaseStudyLibrary()
	engine := pace.NewEngine()
	hw := pace.SunUltra5
	pred := func(app *pace.AppModel, k int) float64 { return engine.MustPredict(app, hw, k) }

	var tasks []schedule.Task
	for i, name := range []string{"sweep3d", "improc", "fft", "jacobi", "memsort", "cpi", "closure", "improc"} {
		m, ok := lib.Lookup(name)
		if !ok {
			log.Fatalf("no model %s", name)
		}
		tasks = append(tasks, schedule.Task{ID: i + 1, App: m, Deadline: 150})
	}
	res := schedule.NewResource(16)
	p := schedule.NewProblem(tasks, res, 0, pred)

	var greedy schedule.Solution
	p.GreedySeed(&greedy)
	gs := schedule.Build(greedy, tasks, res, 0, pred)
	gc := p.Breakdown(greedy)
	fmt.Printf("\narrival-order greedy: makespan %.0fs, weighted idle %.0fs, contract penalty %.0fs\n",
		gc.Makespan, gc.Idle, gc.ContractPen)
	fmt.Println(schedule.Gantt(gs, 72))

	cfg := ga.DefaultConfig()
	cfg.MaxGenerations = 120
	result := ga.Run[schedule.Solution](p, cfg, sim.NewRNG(7), []schedule.Solution{greedy})
	bs := schedule.Build(result.Best, tasks, res, 0, pred)
	bc := p.Breakdown(result.Best)
	fmt.Printf("\nGA after %d generations (%d cost requests, %d evaluated): makespan %.0fs, weighted idle %.0fs, contract penalty %.0fs\n",
		result.Generations, result.CostEvals, result.Evaluations, bc.Makespan, bc.Idle, bc.ContractPen)
	fmt.Println(schedule.Gantt(bs, 72))

	if bc.Combined <= gc.Combined {
		fmt.Printf("\nGA improved the combined cost: %.1f -> %.1f\n", gc.Combined, bc.Combined)
	} else {
		fmt.Printf("\nGA did not beat greedy on this instance (%.1f vs %.1f)\n", bc.Combined, gc.Combined)
	}
}
