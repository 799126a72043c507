package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// runConfig is one invocation: a workload, the seed its inputs come
// from, and how long (or how many units) to measure.
type runConfig struct {
	Workload workload
	Seed     uint64
	Seconds  float64 // time box of the timed section; ignored when Repeat > 0
	Repeat   int     // fixed number of units
	Smoke    bool    // units of 1/smokeShrink of the workload's requests
	Traced   bool
	// ProbeShrink divides the probes' call counts (tests only).
	ProbeShrink int
}

// runResult is what one invocation measured: every end-to-end metric
// that applies to the workload, and, for a traced run, the per-layer
// metrics and the harness's spans.
type runResult struct {
	Workload     string          `json:"workload"`
	Seed         uint64          `json:"seed"`
	Traced       bool            `json:"traced"`
	UnitRequests int             `json:"unit_requests"`
	Units        int             `json:"units"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Correct      bool            `json:"correct"`
	Problems     []string        `json:"problems,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end"`
	PerLayer     map[string]stat `json:"per_layer,omitempty"`
	Spans        []span          `json:"spans,omitempty"`
}

// A simulator run repeats its set-up before every unit — up to
// setupsPerUnit times or setupBox seconds, whichever ends first — and
// reports the median of them all: a millisecond set-up is sampled often
// enough to be steady, and the samples are spread over the run instead
// of all sitting in its first, coldest moments. The farm sets up once
// per unit.
const (
	setupsPerUnit = 10
	setupBox      = 0.1
)

// unitSeed derives the seed of the run's i-th unit. Unit 0 runs -seed
// itself, so the pinned fingerprints apply to it; the others are spread
// over the seed space so that runs with neighbouring seeds share no unit.
func unitSeed(seed uint64, i int) uint64 {
	return seed ^ uint64(i)*0x9e3779b97f4a7c15
}

// timeBox decides after each unit whether another fits: it stops once
// the elapsed time plus half a typical unit would pass the box, so a run
// ends near -seconds, not a whole unit beyond it. At least one unit runs.
type timeBox struct {
	cfg   runConfig
	start time.Time
	units int
}

func (b *timeBox) more() bool {
	defer func() { b.units++ }()
	if b.units == 0 {
		b.start = time.Now()
		return true
	}
	if b.cfg.Repeat > 0 {
		return b.units < b.cfg.Repeat
	}
	elapsed := time.Since(b.start).Seconds()
	return elapsed+elapsed/float64(b.units)/2 < b.cfg.Seconds
}

// run executes the workload and reduces its units to medians.
func run(cfg runConfig) (runResult, error) {
	res := runResult{
		Workload: cfg.Workload.Name, Seed: cfg.Seed, Traced: cfg.Traced,
	}
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	e2e, layers := metricSet{}, metricSet{}
	root := tr.begin("workload "+cfg.Workload.Name, 0, 0)

	units := runSim
	if cfg.Workload.File == "" {
		units = runFarm
	}
	if err := units(cfg, &res, e2e, layers, tr, root); err != nil {
		return res, err
	}
	tr.end(root)

	if cfg.Traced {
		id := tr.begin("probes", 0, 0)
		err := probes(layers, cfg.Seed, cfg.ProbeShrink)
		tr.end(id)
		if err != nil {
			return res, err
		}
		layers.add("runtime.heap_sys_mb", heapSysMB())
		layers.add("runtime.peak_rss_mb", peakRSSMB())
		res.Spans = tr.all()
		spanLayers(layers, res.Spans)
		res.PerLayer = layers.stats()
	}
	e2e.add("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))
	res.EndToEnd = e2e.stats()
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// measured is one finished unit, of the simulator or of the farm.
type measured interface {
	endToEnd(metricSet)
	layers(metricSet)
	tracedLayers(metricSet)
	outcome() (use usage, failed int, problems []string)
}

// runUnits fills the time box with units of res.UnitRequests requests. A
// traced run follows every unit with the same unit — same seed, identical
// work — under the program's telemetry, so the ratio of the two wall
// times is the tracing overhead; end-to-end samples come from the
// untraced unit alone.
func runUnits(cfg runConfig, res *runResult, e2e, layers metricSet, tr *tracer, root int,
	unit func(i int, seed uint64, traced bool, parent int) (measured, error)) error {
	box := timeBox{cfg: cfg}
	for i := 0; box.more(); i++ {
		seed := unitSeed(cfg.Seed, i)
		id := tr.begin("unit", root, 0)
		u, err := unit(i, seed, false, id)
		tr.end(id)
		if err != nil {
			return err
		}
		use, failed, problems := u.outcome()
		res.Units++
		res.Attempted += res.UnitRequests
		res.Failed += failed
		res.Problems = append(res.Problems, problems...)
		u.endToEnd(e2e)
		u.layers(layers)
		if !cfg.Traced {
			continue
		}
		id = tr.begin("unit traced", root, 0)
		t, err := unit(i, seed, true, id)
		tr.end(id)
		if err != nil {
			return err
		}
		tracedUse, _, problems := t.outcome()
		res.Problems = append(res.Problems, problems...)
		t.tracedLayers(layers)
		if use.Wall > 0 {
			layers.add("telemetry.overhead_frac", tracedUse.Wall/use.Wall-1)
		}
	}
	return nil
}

// runSim measures a simulator workload: set-up on its own at the start of
// every unit (spans under the unit's, so the harness's self time leaves
// them out), then scenario.Run under library-default options.
func runSim(cfg runConfig, res *runResult, e2e, layers metricSet, tr *tracer, root int) error {
	spec, err := cfg.Workload.spec(cfg.Smoke)
	if err != nil {
		return err
	}
	res.UnitRequests = spec.Arrivals.Count
	pins, err := loadFingerprints()
	if err != nil {
		return err
	}
	telemetryOn := scenario.RunOptions{Telemetry: true}
	if rate, err := spec.Arrivals.MeanRate(); err == nil {
		// The sampler copies the whole registry at every period; sixteen
		// samples over the request phase keep a 10 000-agent series in
		// tens of megabytes, where the 10 s default takes gigabytes.
		if p := float64(spec.Arrivals.Count) / rate / 16; p > 10 {
			telemetryOn.SamplePeriod = p
		}
	}
	return runUnits(cfg, res, e2e, layers, tr, root, func(i int, seed uint64, traced bool, parent int) (measured, error) {
		if traced {
			return runSimUnit(spec, seed, telemetryOn, pins[cfg.Workload.Name], tr, parent), nil
		}
		setupStart := time.Now()
		for n := 0; n < setupsPerUnit && (n == 0 || time.Since(setupStart).Seconds() < setupBox); n++ {
			id := tr.begin("setup", parent, 0)
			_, secs, err := simSetup(spec, seed, tr, id)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			e2e.add("setup_s", secs)
		}
		u := runSimUnit(spec, seed, scenario.RunOptions{}, pins[cfg.Workload.Name], tr, parent)
		if i == 0 {
			simStatistics(e2e, u.res)
		}
		return u, nil
	})
}

// runFarm measures the live farm: every unit starts a fresh farm, so
// set-up is timed once per unit and every unit queues on empty nodes.
func runFarm(cfg runConfig, res *runResult, e2e, layers metricSet, tr *tracer, root int) error {
	res.UnitRequests = farmRequests
	if cfg.Smoke {
		res.UnitRequests /= smokeShrink
	}
	return runUnits(cfg, res, e2e, layers, tr, root, func(_ int, seed uint64, traced bool, parent int) (measured, error) {
		return runFarmUnit(seed, res.UnitRequests, traced, tr, parent, nil), nil
	})
}

// spanLayers derives the set-up breakdown and the harness's own share
// of the timed section from the spans.
func spanLayers(m metricSet, spans []span) {
	total, self := selfTimes(spans)
	count := map[string]int64{}
	for _, s := range spans {
		count[s.Name]++
	}
	perCall := func(metric, name string) {
		if n := count[name]; n > 0 {
			m.add(metric, float64(total[name])/float64(n)/1e6)
		}
	}
	perCall("setup.topology_build_ms", "scenario.TopologySpec.Build")
	perCall("setup.core_new_ms", "core.New")
	perCall("setup.generate_ms", "workload.Generate")
	perCall("setup.submit_ms", "core.Grid.Submit")
	if t := total["unit"] + total["unit traced"]; t > 0 {
		// What is left of the units once the calls into the program are
		// taken out: generating the batch, checking replies, measuring.
		m.add("harness.self_frac", float64(self["unit"]+self["unit traced"])/float64(t))
	}
}

func describe(r runResult) string {
	s := fmt.Sprintf("%s seed %d: %d units of %d requests, %d attempted, %d failed", r.Workload, r.Seed, r.Units, r.UnitRequests, r.Attempted, r.Failed)
	if r.Traced {
		s += ", traced"
	}
	return s
}
