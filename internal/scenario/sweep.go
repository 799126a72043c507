package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Sweep axes: the one dimension a sweep varies while everything else in
// the spec stays fixed.
const (
	AxisAgents        = "agents"         // generated-topology size
	AxisRate          = "rate"           // long-run arrival rate, requests/s
	AxisRequests      = "requests"       // request count
	AxisDeadlineScale = "deadline_scale" // deadline-tightness multiplier
	AxisSeed          = "seed"           // replication axis
)

// ParseAxis parses a CLI sweep argument of the form "axis=v1,v2,...".
func ParseAxis(arg string) (axis string, values []float64, err error) {
	axis, list, ok := strings.Cut(arg, "=")
	if !ok || axis == "" || list == "" {
		return "", nil, fmt.Errorf("scenario: sweep %q not of the form axis=v1,v2,...", arg)
	}
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return "", nil, fmt.Errorf("scenario: sweep value %q: %w", f, err)
		}
		values = append(values, v)
	}
	return axis, values, nil
}

// apply returns the spec with the axis set to value.
func apply(spec Spec, axis string, value float64) (Spec, error) {
	out := spec
	switch axis {
	case AxisAgents:
		if out.Topology.Preset != "" {
			return Spec{}, fmt.Errorf("scenario: the %s axis needs a generated topology, not preset %q", axis, out.Topology.Preset)
		}
		if value < 1 || value != float64(int(value)) {
			return Spec{}, fmt.Errorf("scenario: agent count %g must be a positive integer", value)
		}
		out.Topology.Agents = int(value)
	case AxisRate:
		arr, err := out.Arrivals.WithMeanRate(value)
		if err != nil {
			return Spec{}, err
		}
		out.Arrivals = arr
	case AxisRequests:
		if value < 1 || value != float64(int(value)) {
			return Spec{}, fmt.Errorf("scenario: request count %g must be a positive integer", value)
		}
		out.Arrivals.Count = int(value)
	case AxisDeadlineScale:
		if value <= 0 {
			return Spec{}, fmt.Errorf("scenario: deadline scale %g must be positive", value)
		}
		out.DeadlineScale = value
	case AxisSeed:
		if value < 0 || value != float64(uint64(value)) {
			return Spec{}, fmt.Errorf("scenario: seed %g must be a non-negative integer", value)
		}
		out.Seed = uint64(value)
	default:
		return Spec{}, fmt.Errorf("scenario: unknown sweep axis %q (want %s, %s, %s, %s or %s)",
			axis, AxisAgents, AxisRate, AxisRequests, AxisDeadlineScale, AxisSeed)
	}
	return out, nil
}

// SweepSpecs returns the scenario once per axis value, ready to run.
// Every point gets its own RNG stream split off the scenario seed up
// front and written into its Seed, so results are a pure function of
// (spec, axis, values): the same no matter how wide the GA worker pool
// is or in what order the points execute. The seed axis is the
// exception: there the value *is* the seed, by definition.
func SweepSpecs(spec Spec, axis string, values []float64) ([]Spec, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("scenario: empty sweep")
	}
	master := sim.NewRNG(spec.Seed)
	out := make([]Spec, len(values))
	for i, v := range values {
		seed := master.Split().Uint64()
		pt, err := apply(spec, axis, v)
		if err != nil {
			return nil, err
		}
		if axis != AxisSeed {
			pt.Seed = seed
		}
		out[i] = pt
	}
	return out, nil
}
