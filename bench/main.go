// Command bench is the repository's benchmark: one process that
// generates a workload's inputs from a seed, runs the program on them,
// checks the outputs and prints every metric by name with its unit.
//
//	go run -C bench . -workload sim-fifo-sat -seed 2003 -seconds 20
//	go run -C bench . -workload farm-fig7-closed -trace 1 -out /tmp/run.json
//	go run -C bench . -probes
//	go run -C bench . -smoke
//	go run -C bench . -compare before.json after.json
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics, as BENCHMARK.json at the repository root
// describes. README.md explains every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

const defaultSeed = 2003

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see README.md)")
		seed      = flag.Uint64("seed", defaultSeed, "the only source of randomness: every input is generated from it")
		seconds   = flag.Float64("seconds", 20, "time box of the timed section: units run until it is used up")
		repeat    = flag.Int("repeat", 0, "run exactly this many units instead of filling -seconds")
		trace     = flag.Int("trace", 0, "1 repeats every unit with the program's telemetry on, runs the layer probes and reports the per-layer metrics")
		out       = flag.String("out", "", "append the run, with every metric and the traced run's spans, to this JSON file")
		probeOnly = flag.Bool("probes", false, "run only the layer probes")
		smoke     = flag.Bool("smoke", false, "run every workload once at 1/20 of its unit size")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 when a metric got worse")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare wants two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *smoke:
		err = runSmoke(*seed)
	case *probeOnly:
		m := metricSet{}
		if err = probes(m, *seed, 1); err == nil {
			printStats("per-layer (probes)", m.stats())
		}
	default:
		err = runOne(*name, runConfig{Seed: *seed, Seconds: *seconds, Repeat: *repeat, Traced: *trace == 1}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func runOne(name string, cfg runConfig, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg.Workload = w
	res, err := run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(describe(res))
	for _, p := range res.Problems {
		fmt.Println("  problem:", p)
	}
	printStats("end-to-end", res.EndToEnd)
	if cfg.Traced {
		printStats("per-layer", res.PerLayer)
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	return printVerdict(os.Stdout, res)
}

// verdict is the line the acceptance driver reads.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]verdictStat `json:"metrics"`
}

type verdictStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printVerdict prints the run as BENCHMARK.json promises it: an
// untraced run reports every gated end-to-end metric, a traced run every
// other metric. A metric the workload has no value for (ack latency in
// the simulator, GA counters under FIFO) reads 0 there.
func printVerdict(w io.Writer, r runResult) error {
	v := verdict{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]verdictStat{}}
	for _, d := range metricDefs {
		if (d.Scope == gated) == r.Traced {
			continue
		}
		s, ok := r.EndToEnd[d.Name]
		if !ok {
			s = r.PerLayer[d.Name]
		}
		v.Metrics[d.Name] = verdictStat{Value: s.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func printStats(title string, stats map[string]stat) {
	fmt.Printf("%s:\n", title)
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	// metricDefs order, which groups the layers.
	rank := map[string]int{}
	for i, d := range metricDefs {
		rank[d.Name] = i
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	for _, name := range names {
		s := stats[name]
		fmt.Printf("  %-34s %14.6g %-6s", name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Printf(" (quartiles %.6g .. %.6g, n=%d)", s.Q1, s.Q3, s.N)
		}
		fmt.Println()
	}
}

// resultFile is the -out document: every run appended to it.
type resultFile struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Runs       []runResult `json:"runs"`
}

const resultSchema = "gridbench/1"

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}

func appendResult(path string, r runResult) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = resultFile{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	f.GoVersion, f.GOMAXPROCS = runtime.Version(), runtime.GOMAXPROCS(0)
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSmoke runs every workload once at 1/20 of its unit size, with all
// the correctness checks of a full run.
func runSmoke(seed uint64) error {
	bad := 0
	for _, w := range workloads {
		res, err := run(runConfig{Workload: w, Seed: seed, Repeat: 1, Smoke: true})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf("%s: %.0f req/s\n", describe(res), res.EndToEnd["req_per_s"].Value)
		for _, p := range res.Problems {
			fmt.Println("  problem:", p)
		}
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", bad, len(workloads))
	}
	return nil
}
