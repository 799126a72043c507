// Package scenario is the declarative experiment layer over the grid:
// a Spec names a topology (the Fig. 7 grid or a generated hierarchy), an
// arrival process, an application mix, a scheduling policy and an
// optional fault plan, and the package runs it — reproducibly — into a
// single Result, a sweep across one axis, or a saturation search for the
// arrival rate a topology can sustain. It composes what the earlier
// layers provide (core grids, GA/FIFO policies, agent discovery, fault
// injection, lifecycle auditing) without adding mechanism of its own:
// every run is an ordinary core.Grid run, audited by internal/audit.
//
// Specs have a JSON file format (examples under examples/scenarios/) so
// experiments can be described, versioned and swept without writing Go.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/membership"
	"repro/internal/workload"
)

// Spec is one reproducible experiment: everything needed to build a
// grid, generate a workload and run it is derived from this value alone.
type Spec struct {
	Name string `json:"name,omitempty"`
	Seed uint64 `json:"seed"`

	Topology TopologySpec `json:"topology"`
	Arrivals ArrivalSpec  `json:"arrivals"`

	// AppWeights biases the Table 1 application mix (empty = uniform
	// over all seven, the paper's behaviour). DeadlineScale multiplies
	// every drawn deadline (0 = 1 = the paper's requirement domains).
	AppWeights    map[string]float64 `json:"app_weights,omitempty"`
	DeadlineScale float64            `json:"deadline_scale,omitempty"`
	// EntryAgents restricts the agents requests arrive at to this subset
	// of the topology (empty = every agent, the paper's behaviour): a
	// crowd that enters through one region of the tree.
	EntryAgents []string `json:"entry_agents,omitempty"`

	// Policy is the local scheduling algorithm (fifo, fifo-fast, ga;
	// empty = ga). UseAgents enables agent-based service discovery; nil
	// defaults to true — the paper's experiment 3 is the configuration a
	// scenario usually wants to stress.
	Policy    string `json:"policy,omitempty"`
	UseAgents *bool  `json:"use_agents,omitempty"`

	// AdvertTTL expires cached advertisements older than this many
	// seconds from discovery decisions (0 = never, the paper's
	// behaviour); fault studies set it so dead resources stop attracting
	// dispatches. See core.Options.AdvertTTL.
	AdvertTTL float64 `json:"advert_ttl,omitempty"`
	// PredictionError and PredictionBias make actual execution times
	// deviate from the PACE predictions (the §5 accuracy study): up to
	// PredictionError relative scatter, shifted by PredictionBias (+0.2 =
	// models 20% optimistic). Zero is the paper's exact test mode. See
	// core.Options.
	PredictionError float64 `json:"prediction_error,omitempty"`
	PredictionBias  float64 `json:"prediction_bias,omitempty"`

	GA           *GASpec          `json:"ga,omitempty"`
	Faults       *FaultSpec       `json:"faults,omitempty"`
	Migration    *MigrationSpec   `json:"migration,omitempty"`
	Reservations *ReservationSpec `json:"reservations,omitempty"`
	Churn        *ChurnSpec       `json:"churn,omitempty"`
}

// TopologySpec describes the grid. Either a named preset or a generated
// hierarchy: Agents resources arranged as a Branching-ary tree, with
// hardware models and node counts cycling through the mix lists.
type TopologySpec struct {
	// Preset selects a fixed topology; "fig7" is the paper's grid.
	// When set, the generated-topology fields must be zero.
	Preset string `json:"preset,omitempty"`

	Agents    int `json:"agents,omitempty"`
	Branching int `json:"branching,omitempty"` // fan-out; default 3
	// Nodes is the homogeneous per-resource node count (default 16, the
	// case study's). NodeMix, when set, cycles per-resource counts
	// instead — mixed cluster sizes.
	Nodes   int   `json:"nodes,omitempty"`
	NodeMix []int `json:"node_mix,omitempty"`
	// Hardware cycles the listed pace hardware models over the agents;
	// empty uses every built-in model from fastest to slowest.
	Hardware []string `json:"hardware,omitempty"`
}

// ArrivalSpec selects and parameterises the arrival process.
type ArrivalSpec struct {
	// Process is one of "fixed", "poisson", "bursty", "flashcrowd",
	// "trace". Empty means fixed.
	Process string `json:"process,omitempty"`
	// Count bounds the request stream (a trace may end sooner).
	Count int `json:"count"`

	Interval float64 `json:"interval,omitempty"` // fixed: spacing in seconds
	Rate     float64 `json:"rate,omitempty"`     // poisson: arrivals per second

	OnRate  float64 `json:"on_rate,omitempty"` // bursty
	OffRate float64 `json:"off_rate,omitempty"`
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`

	BaseRate     float64 `json:"base_rate,omitempty"` // flashcrowd
	PeakRate     float64 `json:"peak_rate,omitempty"`
	RampStart    float64 `json:"ramp_start,omitempty"`
	RampDuration float64 `json:"ramp_duration,omitempty"`
	Hold         float64 `json:"hold,omitempty"`

	// TraceFile names a CSV of arrival times (one per line, seconds,
	// non-decreasing; lines starting with '#' and a leading header are
	// skipped). Times carries the same inline — Load fills it from
	// TraceFile, resolved relative to the spec file.
	TraceFile string    `json:"trace_file,omitempty"`
	Times     []float64 `json:"times,omitempty"`
}

// GASpec overrides the GA hyper-parameters a scenario cares about; zero
// fields keep the case-study defaults.
type GASpec struct {
	PopulationSize    int `json:"population_size,omitempty"`
	MaxGenerations    int `json:"max_generations,omitempty"`
	ConvergenceWindow int `json:"convergence_window,omitempty"`
	Workers           int `json:"workers,omitempty"`
}

// FaultSpec is the JSON shape of a fault.Plan.
type FaultSpec struct {
	Seed   uint64       `json:"seed,omitempty"`
	Events []FaultEvent `json:"events"`
}

// FaultEvent is the JSON shape of one fault.Event.
type FaultEvent struct {
	At     float64 `json:"at"`
	Kind   string  `json:"kind"`
	Agent  string  `json:"agent,omitempty"`
	A      string  `json:"a,omitempty"`
	B      string  `json:"b,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Factor float64 `json:"factor,omitempty"` // degrade: execution-time multiplier
}

// MigrationSpec is the JSON shape of core.MigrationPolicy: drift-driven
// rescheduling of queued work off resources whose observed performance
// has fallen behind their PACE predictions. Zero fields keep the core
// defaults.
type MigrationSpec struct {
	Enabled        bool    `json:"enabled"`
	CheckPeriod    float64 `json:"check_period,omitempty"`
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	Window         int     `json:"window,omitempty"`
	Cooldown       float64 `json:"cooldown,omitempty"`
	MaxPerRound    int     `json:"max_per_round,omitempty"`
}

// ReservationSpec mixes advance reservations into the workload: each
// generated request is diverted, with probability Share, from the
// best-effort submit path to core.SubmitReservationAt — it asks for a
// window of Duration seconds on Nodes nodes across Parts resources,
// starting Lead seconds after it arrives. The diversion draws from its
// own RNG stream, so the best-effort requests that remain are the same
// requests a share-0 run submits, at the same times.
type ReservationSpec struct {
	// Share is the fraction of requests converted to reservations, in
	// [0,1]. Zero disables the path entirely (byte-identical runs).
	Share float64 `json:"share"`

	Lead     float64 `json:"lead,omitempty"`     // start offset, seconds (default 300)
	Duration float64 `json:"duration,omitempty"` // booked window length, seconds (default 120)
	Nodes    int     `json:"nodes,omitempty"`    // nodes per part (default 2)
	Parts    int     `json:"parts,omitempty"`    // co-allocated resources (default 1)

	HoldTTL float64 `json:"hold_ttl,omitempty"` // phase-one hold TTL, seconds
	// MaxSlip bounds how far past the requested start the granted window
	// may slip before admission is refused; 0 = unbounded.
	MaxSlip float64 `json:"max_slip,omitempty"`
}

// ChurnSpec scripts dynamic membership: agents joining and gracefully
// leaving the hierarchy at fixed virtual times, plus an optional
// load-driven rebalancer re-homing subtrees when the tree goes lopsided.
// It composes with fault plans (crash/partition churn) and any arrival
// process — a flash crowd over a churning tree is the stress case the
// static paper topology cannot express.
type ChurnSpec struct {
	Joins     []ChurnJoin    `json:"joins,omitempty"`
	Leaves    []ChurnLeave   `json:"leaves,omitempty"`
	Rebalance *RebalanceSpec `json:"rebalance,omitempty"`
}

// ChurnJoin is the JSON shape of one membership.Join.
type ChurnJoin struct {
	Time         float64  `json:"time"`
	Name         string   `json:"name"`
	Hardware     string   `json:"hardware"`
	Nodes        int      `json:"nodes"`
	Parent       string   `json:"parent"`
	Environments []string `json:"environments,omitempty"`
}

// ChurnLeave is the JSON shape of one membership.Leave.
type ChurnLeave struct {
	Time float64 `json:"time"`
	Name string  `json:"name"`
}

// RebalanceSpec is the JSON shape of membership.Policy; zero fields keep
// the membership defaults.
type RebalanceSpec struct {
	Enabled     bool    `json:"enabled"`
	CheckPeriod float64 `json:"check_period,omitempty"`
	Imbalance   float64 `json:"imbalance,omitempty"`
	Window      int     `json:"window,omitempty"`
	Cooldown    float64 `json:"cooldown,omitempty"`
	MaxFanIn    int     `json:"max_fan_in,omitempty"`
	MinLoad     int     `json:"min_load,omitempty"`
}

// ChurnPlan converts the spec's scripted joins and leaves; nil when the
// spec has none (so a rebalance-only churn section still builds a grid
// without a plan).
func (s Spec) ChurnPlan() *membership.Plan {
	c := s.Churn
	if c == nil || len(c.Joins)+len(c.Leaves) == 0 {
		return nil
	}
	plan := &membership.Plan{
		Joins:  make([]membership.Join, len(c.Joins)),
		Leaves: make([]membership.Leave, len(c.Leaves)),
	}
	for i, j := range c.Joins {
		plan.Joins[i] = membership.Join{
			Time: j.Time, Name: j.Name, Hardware: j.Hardware, Nodes: j.Nodes,
			Parent: j.Parent, Environments: j.Environments,
		}
	}
	for i, l := range c.Leaves {
		plan.Leaves[i] = membership.Leave{Time: l.Time, Name: l.Name}
	}
	return plan
}

// RebalancePolicy converts the spec's rebalance section; nil (disabled)
// when absent or not enabled.
func (s Spec) RebalancePolicy() *membership.Policy {
	c := s.Churn
	if c == nil || c.Rebalance == nil || !c.Rebalance.Enabled {
		return nil
	}
	rb := c.Rebalance
	return &membership.Policy{
		CheckPeriod: rb.CheckPeriod, Imbalance: rb.Imbalance,
		Window: rb.Window, Cooldown: rb.Cooldown, MaxFanIn: rb.MaxFanIn,
		MinLoad: rb.MinLoad,
	}
}

// reservationDefaults resolves the zero shape fields.
func (r ReservationSpec) reservationDefaults() ReservationSpec {
	if r.Lead <= 0 {
		r.Lead = 300
	}
	if r.Duration <= 0 {
		r.Duration = 120
	}
	if r.Nodes <= 0 {
		r.Nodes = 2
	}
	if r.Parts <= 0 {
		r.Parts = 1
	}
	return r
}

// ReservationPolicy converts the spec's reservation section to the core
// policy; the zero policy when absent.
func (s Spec) ReservationPolicy() core.ReservationPolicy {
	if s.Reservations == nil {
		return core.ReservationPolicy{}
	}
	return core.ReservationPolicy{
		HoldTTL: s.Reservations.HoldTTL,
		MaxSlip: s.Reservations.MaxSlip,
	}
}

// DefaultGA returns the GA configuration of the §4.1 case study (the
// experiment package's DefaultParams delegates here, so scenarios and
// the Table 3 experiments stay in lockstep).
func DefaultGA() ga.Config {
	cfg := ga.DefaultConfig()
	cfg.MaxGenerations = 30
	cfg.ConvergenceWindow = 8
	return cfg
}

// Fig7 returns the §4.1 case study as a scenario: the Fig. 7 grid, 600
// requests at fixed one-second intervals, seed 2003, GA + agent-based
// discovery (the paper's experiment 3). Running it reproduces the
// experiment-3 column of Table 3 byte-identically.
func Fig7() Spec {
	return Spec{
		Name:     "fig7-case-study",
		Seed:     2003,
		Topology: TopologySpec{Preset: PresetFig7},
		Arrivals: ArrivalSpec{Process: "fixed", Count: 600, Interval: 1},
		Policy:   string(core.PolicyGA),
	}
}

// AgentsEnabled resolves the UseAgents default (true).
func (s Spec) AgentsEnabled() bool {
	return s.UseAgents == nil || *s.UseAgents
}

// GAConfig resolves the effective GA configuration.
func (s Spec) GAConfig() ga.Config {
	cfg := DefaultGA()
	if s.GA != nil {
		if s.GA.PopulationSize > 0 {
			cfg.PopulationSize = s.GA.PopulationSize
		}
		if s.GA.MaxGenerations > 0 {
			cfg.MaxGenerations = s.GA.MaxGenerations
		}
		if s.GA.ConvergenceWindow > 0 {
			cfg.ConvergenceWindow = s.GA.ConvergenceWindow
		}
		if s.GA.Workers > 0 {
			cfg.Workers = s.GA.Workers
		}
	}
	return cfg
}

// FaultPlan converts the spec's fault section; nil when absent.
func (s Spec) FaultPlan() *fault.Plan {
	if s.Faults == nil {
		return nil
	}
	plan := &fault.Plan{Seed: s.Faults.Seed, Events: make([]fault.Event, len(s.Faults.Events))}
	for i, ev := range s.Faults.Events {
		plan.Events[i] = fault.Event{
			At: ev.At, Kind: fault.Kind(ev.Kind), Agent: ev.Agent, A: ev.A, B: ev.B, Rate: ev.Rate,
			Factor: ev.Factor,
		}
	}
	return plan
}

// MigrationPolicy converts the spec's migration section; the zero
// (disabled) policy when absent.
func (s Spec) MigrationPolicy() core.MigrationPolicy {
	if s.Migration == nil {
		return core.MigrationPolicy{}
	}
	return core.MigrationPolicy{
		Enabled:        s.Migration.Enabled,
		CheckPeriod:    s.Migration.CheckPeriod,
		DriftThreshold: s.Migration.DriftThreshold,
		Window:         s.Migration.Window,
		Cooldown:       s.Migration.Cooldown,
		MaxPerRound:    s.Migration.MaxPerRound,
	}
}

// BuildProcess builds the workload.ArrivalProcess the spec describes.
func (a ArrivalSpec) BuildProcess() (workload.ArrivalProcess, error) {
	switch a.Process {
	case "", "fixed":
		iv := a.Interval
		if iv == 0 {
			iv = 1
		}
		return workload.FixedInterval{Interval: iv}, nil
	case "poisson":
		return workload.Poisson{Rate: a.Rate}, nil
	case "bursty":
		return workload.Bursty{OnRate: a.OnRate, OffRate: a.OffRate, OnMean: a.OnMean, OffMean: a.OffMean}, nil
	case "flashcrowd":
		return workload.FlashCrowd{
			BaseRate: a.BaseRate, PeakRate: a.PeakRate,
			RampStart: a.RampStart, RampDuration: a.RampDuration, Hold: a.Hold,
		}, nil
	case "trace":
		return workload.TraceReplay{At: a.Times}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown arrival process %q (want fixed, poisson, bursty, flashcrowd or trace)", a.Process)
	}
}

// MeanRate returns the process's long-run arrival rate in requests per
// second — the load axis sweeps and the saturation finder bisect over.
// Traces have no free rate parameter and return an error.
func (a ArrivalSpec) MeanRate() (float64, error) {
	switch a.Process {
	case "", "fixed":
		iv := a.Interval
		if iv == 0 {
			iv = 1
		}
		return 1 / iv, nil
	case "poisson":
		return a.Rate, nil
	case "bursty":
		return (a.OnRate*a.OnMean + a.OffRate*a.OffMean) / (a.OnMean + a.OffMean), nil
	case "flashcrowd":
		return a.BaseRate, nil
	default:
		return 0, fmt.Errorf("scenario: arrival process %q has no mean rate to scale", a.Process)
	}
}

// WithMeanRate returns a copy of the spec scaled so its long-run rate is
// rate, preserving the process's shape (burst duty cycle, crowd ratio).
func (a ArrivalSpec) WithMeanRate(rate float64) (ArrivalSpec, error) {
	if rate <= 0 {
		return ArrivalSpec{}, fmt.Errorf("scenario: target rate %g must be positive", rate)
	}
	cur, err := a.MeanRate()
	if err != nil {
		return ArrivalSpec{}, err
	}
	f := rate / cur
	out := a
	switch a.Process {
	case "", "fixed":
		iv := a.Interval
		if iv == 0 {
			iv = 1
		}
		out.Interval = iv / f
	case "poisson":
		out.Rate = rate
	case "bursty":
		out.OnRate *= f
		out.OffRate *= f
	case "flashcrowd":
		out.BaseRate *= f
		out.PeakRate *= f
	}
	return out, nil
}

// Validate checks the spec end to end: topology, arrivals, policy,
// workload shaping, prediction noise and the agent references of the
// entry list and the fault plan.
func (s Spec) Validate() error {
	resources, err := s.Topology.Build()
	if err != nil {
		return err
	}
	if _, err := core.ParsePolicy(s.Policy); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Arrivals.Count <= 0 {
		return fmt.Errorf("scenario: arrival count %d must be positive", s.Arrivals.Count)
	}
	proc, err := s.Arrivals.BuildProcess()
	if err != nil {
		return err
	}
	if err := proc.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"deadline_scale", s.DeadlineScale}, {"advert_ttl", s.AdvertTTL}, {"prediction_error", s.PredictionError}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) { // !(v >= 0) also catches NaN
			return fmt.Errorf("scenario: %s %g must be finite and non-negative", f.name, f.v)
		}
	}
	if !(s.PredictionBias > -1) || math.IsInf(s.PredictionBias, 1) {
		return fmt.Errorf("scenario: prediction_bias %g must be finite and above -1 (actual times stay positive)", s.PredictionBias)
	}
	if len(s.EntryAgents) > 0 {
		known := agentSet(resources)
		for _, name := range s.EntryAgents {
			if !known[name] {
				return fmt.Errorf("scenario: entry agent %q is not in the topology", name)
			}
		}
	}
	if s.Migration != nil && s.Migration.Enabled && !s.AgentsEnabled() {
		return fmt.Errorf("scenario: migration requires use_agents (tasks are re-placed through agent discovery)")
	}
	if r := s.Reservations; r != nil {
		if r.Share < 0 || r.Share > 1 {
			return fmt.Errorf("scenario: reservation share %g outside [0,1]", r.Share)
		}
		if r.Share > 0 && !s.AgentsEnabled() {
			return fmt.Errorf("scenario: reservations require use_agents (windows are shopped through agent discovery)")
		}
		if r.Lead < 0 || r.Duration < 0 || r.Nodes < 0 || r.Parts < 0 || r.HoldTTL < 0 || r.MaxSlip < 0 {
			return fmt.Errorf("scenario: negative reservation parameter (lead %g, duration %g, nodes %d, parts %d, hold_ttl %g, max_slip %g)",
				r.Lead, r.Duration, r.Nodes, r.Parts, r.HoldTTL, r.MaxSlip)
		}
	}
	if c := s.Churn; c != nil {
		if !s.AgentsEnabled() {
			return fmt.Errorf("scenario: churn requires use_agents (membership is an agent-layer notion)")
		}
		if plan := s.ChurnPlan(); plan != nil {
			head := ""
			base := make([]string, len(resources))
			for i, r := range resources {
				base[i] = r.Name
				if r.Parent == "" {
					head = r.Name
				}
			}
			if err := plan.Validate(head, base); err != nil {
				return err
			}
		}
	}
	if plan := s.FaultPlan(); plan != nil {
		if !s.AgentsEnabled() {
			return fmt.Errorf("scenario: a fault plan requires use_agents (the fault model targets the agent layer)")
		}
		if err := plan.Validate(agentSet(resources)); err != nil {
			return err
		}
	}
	return nil
}

// agentSet returns the names of the given resources as a set.
func agentSet(resources []core.ResourceSpec) map[string]bool {
	known := make(map[string]bool, len(resources))
	for _, r := range resources {
		known[r.Name] = true
	}
	return known
}

// Load reads, decodes and validates a scenario file. Unknown JSON fields
// are errors — a typoed knob silently reverting to a default would
// invalidate an experiment. A trace_file is resolved relative to the
// spec file's directory and inlined: the returned spec carries the
// times in Arrivals.Times and no TraceFile, so it re-encodes to a
// self-contained scenario file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Arrivals.TraceFile != "" {
		if len(s.Arrivals.Times) > 0 {
			return Spec{}, fmt.Errorf("scenario: %s: trace_file and times are mutually exclusive", path)
		}
		tracePath := s.Arrivals.TraceFile
		if !filepath.IsAbs(tracePath) {
			tracePath = filepath.Join(filepath.Dir(path), tracePath)
		}
		times, err := LoadTraceCSV(tracePath)
		if err != nil {
			return Spec{}, err
		}
		s.Arrivals.Times, s.Arrivals.TraceFile = times, ""
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// LoadTraceCSV reads arrival times from a CSV/plain-text file: one time
// per line (the first field of each line), '#' comments and a
// non-numeric header line skipped. The times must form a replayable
// trace: finite, non-negative and non-decreasing.
func LoadTraceCSV(path string) ([]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var out []float64
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field := line
		if idx := strings.IndexByte(line, ','); idx >= 0 {
			field = line[:idx]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			if len(out) == 0 {
				continue // header line
			}
			return nil, fmt.Errorf("scenario: %s line %d: %w", path, i+1, err)
		}
		out = append(out, v)
	}
	if err := (workload.TraceReplay{At: out}).Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return out, nil
}
