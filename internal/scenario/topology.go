package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pace"
)

// PresetFig7 names the paper's twelve-agent grid.
const PresetFig7 = "fig7"

// maxAgents bounds a generated topology: ten times the largest grid the
// repository runs (examples/scenarios/mega.json, 10 000 agents). A spec
// file asking for more is refused before anything is allocated for it.
const maxAgents = 100_000

// Fig7Resources returns the Fig. 7 grid: twelve agents S1..S12, each a
// heterogeneous resource of sixteen homogeneous nodes, ranging from SGI
// Origin 2000 (most powerful) down to Sun SPARCstation 2. The paper
// draws the hierarchy without naming edges; the tree used here — S1 at
// the head, S2/S3/S4 below it, and the remaining agents grouped under
// those — follows the figure's layout and is recorded in DESIGN.md as an
// assumption.
func Fig7Resources() []core.ResourceSpec {
	return []core.ResourceSpec{
		{Name: "S1", Hardware: "SGIOrigin2000", Nodes: 16, Parent: ""},
		{Name: "S2", Hardware: "SGIOrigin2000", Nodes: 16, Parent: "S1"},
		{Name: "S3", Hardware: "SunUltra10", Nodes: 16, Parent: "S1"},
		{Name: "S4", Hardware: "SunUltra10", Nodes: 16, Parent: "S1"},
		{Name: "S5", Hardware: "SunUltra5", Nodes: 16, Parent: "S2"},
		{Name: "S6", Hardware: "SunUltra5", Nodes: 16, Parent: "S2"},
		{Name: "S7", Hardware: "SunUltra5", Nodes: 16, Parent: "S3"},
		{Name: "S8", Hardware: "SunUltra1", Nodes: 16, Parent: "S3"},
		{Name: "S9", Hardware: "SunUltra1", Nodes: 16, Parent: "S4"},
		{Name: "S10", Hardware: "SunUltra1", Nodes: 16, Parent: "S4"},
		{Name: "S11", Hardware: "SunSPARCstation2", Nodes: 16, Parent: "S5"},
		{Name: "S12", Hardware: "SunSPARCstation2", Nodes: 16, Parent: "S6"},
	}
}

// Build materialises the topology as resource specs. Generated
// hierarchies name agents A1..AN and arrange them as a Branching-ary
// tree (A1 the head), cycling the hardware and node-count mixes over the
// agents — the Fig. 7 pattern of fast resources near the head and slower
// ones toward the leaves, generalised to arbitrary size.
func (t TopologySpec) Build() ([]core.ResourceSpec, error) {
	if t.Preset != "" {
		if t.Agents != 0 || t.Branching != 0 || t.Nodes != 0 || len(t.NodeMix) != 0 || len(t.Hardware) != 0 {
			return nil, fmt.Errorf("scenario: topology preset %q excludes the generated-topology fields", t.Preset)
		}
		if t.Preset != PresetFig7 {
			return nil, fmt.Errorf("scenario: unknown topology preset %q (want %q)", t.Preset, PresetFig7)
		}
		return Fig7Resources(), nil
	}
	if t.Agents < 1 {
		return nil, fmt.Errorf("scenario: topology needs a preset or a positive agent count (got %d)", t.Agents)
	}
	if t.Agents > maxAgents {
		return nil, fmt.Errorf("scenario: topology of %d agents exceeds the maximum of %d", t.Agents, maxAgents)
	}
	branching := t.Branching
	if branching == 0 {
		branching = 3
	}
	if branching < 1 {
		return nil, fmt.Errorf("scenario: branching %d must be positive", t.Branching)
	}
	nodeMix := t.NodeMix
	if len(nodeMix) == 0 {
		nodes := t.Nodes
		if nodes == 0 {
			nodes = 16
		}
		nodeMix = []int{nodes}
	}
	for _, n := range nodeMix {
		if n < 1 || n > 64 {
			return nil, fmt.Errorf("scenario: node count %d outside [1, 64] (node masks are 64-bit)", n)
		}
	}
	hardware := t.Hardware
	if len(hardware) == 0 {
		hardware = pace.HardwareNames()
	}
	for _, hw := range hardware {
		if _, ok := pace.LookupHardware(hw); !ok {
			return nil, fmt.Errorf("scenario: unknown hardware model %q (known: %v)", hw, pace.HardwareNames())
		}
	}
	specs := make([]core.ResourceSpec, t.Agents)
	for i := range specs {
		specs[i] = core.ResourceSpec{
			Name:     fmt.Sprintf("A%d", i+1),
			Hardware: hardware[i%len(hardware)],
			Nodes:    nodeMix[i%len(nodeMix)],
		}
		if i > 0 {
			specs[i].Parent = fmt.Sprintf("A%d", (i-1)/branching+1)
		}
	}
	return specs, nil
}

// AgentNames returns the topology's agent names in declaration order.
func (t TopologySpec) AgentNames() ([]string, error) {
	specs, err := t.Build()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out, nil
}
