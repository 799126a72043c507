package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workload is one set of inputs the benchmark runs. A simulator workload
// is a scenario file under workloads/, sized to one unit of a run; a run
// repeats that unit with seeds derived from -seed, so that it holds
// several samples and reports their median.
type workload struct {
	Name string
	Why  string
	// File is the scenario under workloads/; empty for the live farm,
	// whose unit is farmRequests requests.
	File string
}

var workloads = []workload{
	{
		Name: "sim-fifo-sat",
		Why:  "1000 agents, Poisson 500/s, fifo-fast: saturated queues, so FIFO replanning, schedule build and PACE predict dominate",
		File: "sim-fifo-sat.json",
	},
	{
		Name: "sim-ga-108",
		Why:  "108 agents, Poisson 4/s, GA policy: the paper's scheduler, many cost evaluations of short queues; FIFO code is bypassed",
		File: "sim-ga-108.json",
	},
	{
		Name: "sim-wide-10k",
		Why:  "10000 agents, Poisson 120/s, fifo-fast: unsaturated, planning is a small share; advert pulls, clock advance and discovery dominate",
		File: "sim-wide-10k.json",
	},
	{
		Name: "sim-reserve-300",
		Why:  "300 agents, 10% advance reservations, degrade and crash faults, migration on: the quote-hold-confirm path with every core subsystem wired",
		File: "sim-reserve-300.json",
	},
	{
		Name: "farm-fig7-closed",
		Why:  "Fig. 7 farm over loopback TCP, fifo, XML over the pooled mux, closed loop of 2 clients: codec, mux, node lock, decide, plan, forward hops, ack",
	},
}

// smokeShrink is how far a smoke run cuts every workload's unit. Only the
// request count shrinks: rates, topologies, policies and fault times stay.
const smokeShrink = 20

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// spec loads the workload's scenario, at 1/smokeShrink of its request
// count for a smoke run.
func (w workload) spec(smoke bool) (scenario.Spec, error) {
	data, err := workloadFiles.ReadFile("workloads/" + w.File)
	if err != nil {
		return scenario.Spec{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s scenario.Spec
	if err := dec.Decode(&s); err != nil {
		return scenario.Spec{}, fmt.Errorf("workloads/%s: %w", w.File, err)
	}
	if smoke {
		s.Arrivals.Count /= smokeShrink
	}
	if err := s.Validate(); err != nil {
		return scenario.Spec{}, fmt.Errorf("workloads/%s: %w", w.File, err)
	}
	return s, nil
}

// fingerprint pins the simulated outcome of one (workload, seed, count):
// the paper's §3.3 statistics and the simulator's event count. They are
// results of the scheduling decisions, not of the host, so they repeat
// exactly; a "pure speed-up" that changes a decision changes them.
type fingerprint struct {
	Seed      uint64  `json:"seed"`
	Count     int     `json:"count"`
	Epsilon   float64 `json:"eps_s"`
	Upsilon   float64 `json:"ups_pct"`
	Beta      float64 `json:"beta_pct"`
	SimEvents uint64  `json:"sim_events"`
}

func loadFingerprints() (map[string][]fingerprint, error) {
	data, err := workloadFiles.ReadFile("workloads/fingerprints.json")
	if err != nil {
		return nil, err
	}
	var fps map[string][]fingerprint
	if err := json.Unmarshal(data, &fps); err != nil {
		return nil, fmt.Errorf("workloads/fingerprints.json: %w", err)
	}
	return fps, nil
}
