package experiment

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pace"
)

// FormatTable1 renders the Table 1 prediction matrix: each application's
// predicted execution time on 1..maxProcs processors of the reference
// platform, plus its deadline requirement domain.
func FormatTable1(lib *pace.Library, engine *pace.Engine, hw pace.Hardware, maxProcs int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Predicted execution times (s) on %s, 1..%d processors\n\n", hw.Name, maxProcs)
	fmt.Fprintf(&b, "%-10s %-10s", "app", "deadline")
	for n := 1; n <= maxProcs; n++ {
		fmt.Fprintf(&b, "%4d", n)
	}
	b.WriteString("\n")
	for _, m := range lib.Models() {
		fmt.Fprintf(&b, "%-10s [%g,%g]", m.Name, m.DeadlineLo, m.DeadlineHi)
		pad := 10 - len(fmt.Sprintf("[%g,%g]", m.DeadlineLo, m.DeadlineHi))
		if pad > 0 {
			b.WriteString(strings.Repeat(" ", pad))
		}
		for n := 1; n <= maxProcs; n++ {
			v, err := engine.Predict(m, hw, n)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%4.0f", v)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// FormatTable2 renders the experiment design grid.
func FormatTable2() string {
	var b strings.Builder
	b.WriteString("Experiment design (Table 2)\n\n")
	fmt.Fprintf(&b, "%-28s %3d %3d %3d\n", "", 1, 2, 3)
	row := func(label string, marks [3]bool) {
		fmt.Fprintf(&b, "%-28s", label)
		for _, m := range marks {
			if m {
				b.WriteString("   x")
			} else {
				b.WriteString("    ")
			}
		}
		b.WriteString("\n")
	}
	row("FIFO algorithm", [3]bool{true, false, false})
	row("GA algorithm", [3]bool{false, true, true})
	row("Agent-based service discovery", [3]bool{false, false, true})
	return b.String()
}

// FormatTable3 renders the Table 3 layout: ε, υ and β per agent and for
// the overall grid, one column group per experiment.
func FormatTable3(outs []Outcome) string {
	var b strings.Builder
	b.WriteString("Case study results (Table 3)\n\n")
	fmt.Fprintf(&b, "%-6s", "")
	for _, o := range outs {
		fmt.Fprintf(&b, " | %8s %6s %6s", fmt.Sprintf("e%d eps", o.Setup.ID), "ups%", "beta%")
	}
	b.WriteString("\n")
	if len(outs) == 0 {
		return b.String()
	}
	for _, name := range append(namesOf(outs[0].Report), "Total") {
		fmt.Fprintf(&b, "%-6s", name)
		for _, o := range outs {
			rep := o.Report.Total
			if name != "Total" {
				rep, _ = o.Report.ResourceByName(name)
			}
			fmt.Fprintf(&b, " | %8.0f %6.0f %6.0f", rep.Epsilon, rep.Upsilon, rep.Beta)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func namesOf(rep metrics.GridReport) []string {
	out := make([]string, 0, len(rep.PerResource))
	for _, r := range rep.PerResource {
		out = append(out, r.Name)
	}
	return out
}

// Trend identifies which §3.3 metric a Figs. 8–10 series reports.
type Trend string

// The three trend figures.
const (
	TrendEpsilon Trend = "epsilon" // Fig. 8: advance time of execution completion
	TrendUpsilon Trend = "upsilon" // Fig. 9: resource utilisation rate
	TrendBeta    Trend = "beta"    // Fig. 10: load balancing level
)

// FormatTrends renders one of Figs. 8–10 as a series table: one row per
// agent (plus the overall grid), one column per experiment, which is the
// data behind the paper's line charts.
func FormatTrends(outs []Outcome, tr Trend) string {
	var b strings.Builder
	var title, unit string
	switch tr {
	case TrendEpsilon:
		title, unit = "Fig. 8: advance time of application execution completion", "s"
	case TrendUpsilon:
		title, unit = "Fig. 9: resource utilisation rate", "%"
	case TrendBeta:
		title, unit = "Fig. 10: load balancing level", "%"
	default:
		return fmt.Sprintf("unknown trend %q", tr)
	}
	fmt.Fprintf(&b, "%s (%s)\n\n%-6s", title, unit, "")
	for _, o := range outs {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("exp %d", o.Setup.ID))
	}
	b.WriteString("\n")
	if len(outs) == 0 {
		return b.String()
	}
	value := func(rep metrics.Report) float64 {
		switch tr {
		case TrendEpsilon:
			return rep.Epsilon
		case TrendUpsilon:
			return rep.Upsilon
		default:
			return rep.Beta
		}
	}
	for _, name := range append(namesOf(outs[0].Report), "Total") {
		fmt.Fprintf(&b, "%-6s", name)
		for _, o := range outs {
			rep := o.Report.Total
			if name != "Total" {
				rep, _ = o.Report.ResourceByName(name)
			}
			fmt.Fprintf(&b, " %8.1f", value(rep))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatDispatchSummary summarises where requests landed, exposing the
// redistribution effect of experiment 3 ("the more powerful platform
// receives more requests").
func FormatDispatchSummary(outs []Outcome) string {
	var b strings.Builder
	b.WriteString("Requests dispatched per resource\n\n")
	fmt.Fprintf(&b, "%-6s", "")
	for _, o := range outs {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("exp %d", o.Setup.ID))
	}
	b.WriteString("\n")
	if len(outs) == 0 {
		return b.String()
	}
	counts := make([]map[string]int, len(outs))
	for i, o := range outs {
		counts[i] = map[string]int{}
		for _, d := range o.Dispatches {
			counts[i][d.Resource]++
		}
	}
	for _, name := range namesOf(outs[0].Report) {
		fmt.Fprintf(&b, "%-6s", name)
		for i := range outs {
			fmt.Fprintf(&b, " %8d", counts[i][name])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// formatTotals renders the table the A/B studies share: the grid-level
// ε/υ/β of run on against run off with their deltas, the deadline-hit
// rates when hitRow is set, and on's audit summary when withAudit is.
func formatTotals(b *strings.Builder, offLabel, onLabel string, off, on Outcome, hitRow, withAudit bool) {
	fmt.Fprintf(b, "%-24s %10s %10s %10s\n", "grid totals", offLabel, onLabel, "delta")
	row := func(label, unit string, a, f float64) {
		fmt.Fprintf(b, "%-24s %10.1f %10.1f %+10.1f  %s\n", label, a, f, f-a, unit)
	}
	row("epsilon (advance time)", "s", off.Report.Total.Epsilon, on.Report.Total.Epsilon)
	row("upsilon (utilisation)", "%", off.Report.Total.Upsilon, on.Report.Total.Upsilon)
	row("beta (balance level)", "%", off.Report.Total.Beta, on.Report.Total.Beta)
	if hitRow {
		row("deadline-hit rate", "%", off.HitRate*100, on.HitRate*100)
	}
	if withAudit {
		b.WriteString("\n")
		b.WriteString(on.Audit.Summary())
		b.WriteString("\n")
	}
}

// FormatSweep renders a sweep study as a table: one row per point,
// outs[i] being the run at the axis value values[i].
func FormatSweep(outs []Outcome, axis string, values []float64) string {
	if len(outs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep of %s over %s\n\n", outs[0].Name, axis)
	fmt.Fprintf(&b, "%12s %7s %9s %9s %8s %8s %8s %9s %9s %9s %10s %8s %6s\n",
		axis, "agents", "requests", "eps (s)", "ups (%)", "beta (%)", "hit (%)",
		"p50 (s)", "p95 (s)", "p99 (s)", "thru (/s)", "wall (s)", "audit")
	for i, res := range outs {
		verdict := "ok"
		if !res.AuditOK {
			verdict = fmt.Sprintf("%d!", res.AuditViolations)
		}
		fmt.Fprintf(&b, "%12g %7d %9d %9.1f %8.1f %8.1f %8.1f %9.1f %9.1f %9.1f %10.2f %8.1f %6s\n",
			values[i], res.Agents, res.Requests, res.Epsilon, res.Upsilon, res.Beta,
			res.HitRate*100, res.SlackP50, res.SlackP95, res.SlackP99,
			res.Throughput, res.WallClock, verdict)
	}
	return b.String()
}
