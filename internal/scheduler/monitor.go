package scheduler

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/schedule"
)

// DefaultPollInterval is the resource monitor's query period: "the
// resource monitor queries each known node every five minutes" (§2.2).
const DefaultPollInterval = 300.0

// AvailabilityEvent records one observed node state change.
type AvailabilityEvent struct {
	Time float64
	Node int
	Up   bool
}

// Monitor is the resource-monitoring module of Fig. 3. It tracks host
// availability — the only statistic the paper's implementation supports —
// and feeds the GA scheduler the set of nodes tasks may be scheduled on.
// Failure injection for tests and examples goes through SetNodeDown.
type Monitor struct {
	numNodes     int
	down         uint64 // bit i set: node i is down
	PollInterval float64
	events       []AvailabilityEvent
}

// NewMonitor returns a monitor over numNodes nodes, all up.
func NewMonitor(numNodes int) *Monitor {
	if numNodes < 1 || numNodes > schedule.MaxNodes {
		panic(fmt.Sprintf("scheduler: monitor over %d nodes, outside [1, %d]", numNodes, schedule.MaxNodes))
	}
	return &Monitor{numNodes: numNodes, PollInterval: DefaultPollInterval}
}

// NumNodes returns the total node count, up or down.
func (m *Monitor) NumNodes() int { return m.numNodes }

// SetNodeDown marks a node down (or back up) as of virtual time now.
// Out-of-range nodes are rejected.
func (m *Monitor) SetNodeDown(node int, down bool, now float64) error {
	if node < 0 || node >= m.numNodes {
		return fmt.Errorf("scheduler: node %d outside [0, %d)", node, m.numNodes)
	}
	if !m.IsUp(node) == down {
		return nil // no state change, no event
	}
	m.down ^= uint64(1) << uint(node)
	m.events = append(m.events, AvailabilityEvent{Time: now, Node: node, Up: !down})
	return nil
}

// IsUp reports whether the node is available.
func (m *Monitor) IsUp(node int) bool {
	return node >= 0 && node < m.numNodes && m.down>>uint(node)&1 == 0
}

// UpNodes returns the available node indices in ascending order.
func (m *Monitor) UpNodes() []int {
	return m.appendUp(make([]int, 0, m.NumUp()))
}

// appendUp appends the available node indices, ascending, to dst.
func (m *Monitor) appendUp(dst []int) []int {
	for i := 0; i < m.numNodes; i++ {
		if m.IsUp(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// NumUp returns the number of available nodes.
func (m *Monitor) NumUp() int { return m.numNodes - bits.OnesCount64(m.down) }

// Events returns the observed availability changes in time order.
func (m *Monitor) Events() []AvailabilityEvent {
	out := make([]AvailabilityEvent, len(m.events))
	copy(out, m.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
