// Command paceeval is the PACE evaluation engine as a CLI (Fig. 1): it
// combines an application model with a hardware model and prints the
// predicted execution time across processor counts. Models come from the
// built-in Table 1 library or from a PSL source file.
//
// Examples:
//
//	paceeval -app sweep3d                      # Table 1 row on the reference platform
//	paceeval -app improc -hw SunUltra5 -n 8    # one prediction
//	paceeval -file mymodel.psl -app mymodel    # user-supplied PSL model
//	paceeval -dump sweep3d                     # print the PSL source
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/pace"
)

func main() {
	var (
		appName = flag.String("app", "", "application model name")
		hwName  = flag.String("hw", "SGIOrigin2000", "hardware model")
		n       = flag.Int("n", 0, "processor count; 0 sweeps 1..max")
		max     = flag.Int("max", 16, "sweep upper bound when -n is 0")
		file    = flag.String("file", "", "PSL source file to load (in addition to built-ins)")
		dump    = flag.String("dump", "", "print a model's PSL source and exit")
	)
	flag.Parse()

	lib := pace.CaseStudyLibrary()
	if *file != "" {
		src, err := os.ReadFile(*file)
		fail(err)
		fail(lib.AddSource(string(src)))
	}

	if *dump != "" {
		m, ok := lib.Lookup(*dump)
		if !ok {
			fail(fmt.Errorf("unknown model %q", *dump))
		}
		fmt.Println(m.String())
		return
	}
	if *appName == "" {
		fmt.Println("available models:")
		for _, m := range lib.Models() {
			fmt.Printf("  %-10s deadline domain [%g, %g]s\n", m.Name, m.DeadlineLo, m.DeadlineHi)
		}
		fmt.Println("\nuse -app <name> to evaluate one")
		return
	}

	m, ok := lib.Lookup(*appName)
	if !ok {
		fail(fmt.Errorf("unknown model %q", *appName))
	}
	hw, ok := pace.LookupHardware(*hwName)
	if !ok {
		fail(fmt.Errorf("unknown hardware %q", *hwName))
	}
	engine := pace.NewEngine()
	if *n > 0 {
		v, err := engine.Predict(m, hw, *n)
		fail(err)
		fmt.Printf("%s on %d x %s: %.4f s\n", m.Name, *n, hw.Name, v)
		return
	}
	fmt.Printf("%s on %s:\n", m.Name, hw.Name)
	fmt.Printf("%6s %12s %12s\n", "procs", "time (s)", "efficiency")
	var t1 float64
	for k := 1; k <= *max; k++ {
		v, err := engine.Predict(m, hw, k)
		fail(err)
		if k == 1 {
			t1 = v
		}
		eff := t1 / (float64(k) * v) * 100
		fmt.Printf("%6d %12.4f %11.1f%%\n", k, v, eff)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paceeval:", err)
		os.Exit(1)
	}
}
