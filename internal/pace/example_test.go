package pace_test

import (
	"fmt"

	"repro/internal/pace"
)

// Predict an application's execution time on a platform: the t_x(ρ, σ)
// every scheduling decision in the system is built on.
func ExampleEngine_Predict() {
	lib := pace.CaseStudyLibrary()
	sweep3d, _ := lib.Lookup("sweep3d")
	engine := pace.NewEngine()

	t4, _ := engine.Predict(sweep3d, pace.SGIOrigin2000, 4)
	t16, _ := engine.Predict(sweep3d, pace.SGIOrigin2000, 16)
	slow, _ := engine.Predict(sweep3d, pace.SunSPARCstation2, 16)
	fmt.Printf("sweep3d on 4 reference nodes: %.0f s\n", t4)
	fmt.Printf("sweep3d on 16 reference nodes: %.0f s\n", t16)
	fmt.Printf("sweep3d on 16 SPARCstation2 nodes: %.0f s\n", slow)
	// Output:
	// sweep3d on 4 reference nodes: 25 s
	// sweep3d on 16 reference nodes: 4 s
	// sweep3d on 16 SPARCstation2 nodes: 24 s
}

// Write a performance model in PSL and evaluate it.
func ExampleParseModel() {
	m, err := pace.ParseModel(`
	  application halve {
	    param n;
	    deadline = [1, 100];
	    time = 64 / n + 2;
	  }`)
	if err != nil {
		panic(err)
	}
	for _, n := range []float64{1, 8, 32} {
		t, _ := m.Eval(map[string]float64{"n": n})
		fmt.Printf("n=%2.0f -> %.0f s\n", n, t)
	}
	// Output:
	// n= 1 -> 66 s
	// n= 8 -> 10 s
	// n=32 -> 4 s
}
