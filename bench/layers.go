package main

import (
	"strings"

	"repro/internal/telemetry"
)

// The program labels per-resource instruments as name{resource="A7"};
// the benchmark reports each layer grid-wide, so values are summed (and
// histograms merged) over every label set of a base name.

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func sumCounter(s telemetry.Snapshot, base string) float64 {
	var sum float64
	for name, v := range s.Counters {
		if baseName(name) == base {
			sum += float64(v)
		}
	}
	return sum
}

func sumGauge(s telemetry.Snapshot, base string) float64 {
	var sum float64
	for name, v := range s.Gauges {
		if baseName(name) == base {
			sum += v
		}
	}
	return sum
}

func mergedHistogram(s telemetry.Snapshot, base string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for name, h := range s.Histograms {
		if baseName(name) == base {
			out = out.Merge(h)
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// telemetryLayers reads the per-layer counts and ratios of one traced
// unit from the program's own telemetry registry. requests and wall are
// the unit's request count and wall seconds. Histogram quantiles are the
// registry's log₂-bucket estimates, not exact order statistics.
func telemetryLayers(m metricSet, s telemetry.Snapshot, requests int, wall float64) {
	req := float64(requests)

	hits, misses := sumGauge(s, "pace_cache_hits"), sumGauge(s, "pace_cache_misses")
	m.add("pace.cache_hit_frac", ratio(hits, hits+misses))
	m.add("pace.predict_calls_per_req", ratio(hits+misses, req))

	plans := mergedHistogram(s, "sched_plan_latency_s")
	m.add("scheduler.plans_per_req", ratio(sumCounter(s, "sched_plans_total"), req))
	m.add("scheduler.plan_p50_us", plans.Quantile(0.50)*1e6)
	m.add("scheduler.plan_p99_us", plans.Quantile(0.99)*1e6)
	// Summed over schedulers that may plan in parallel, so this share of
	// the unit's wall time can exceed 1 on a multi-core run.
	m.add("scheduler.plan_wall_frac", ratio(plans.Sum, wall))

	gaPlans := sumCounter(s, "ga_plans_total")
	m.add("ga.generations_per_plan", ratio(sumCounter(s, "ga_generations_total"), gaPlans))
	m.add("ga.cost_evals_per_plan", ratio(sumCounter(s, "ga_cost_evals_total"), gaPlans))

	shop := mergedHistogram(s, "reservation_quote_wall_s")
	m.add("reserve.quote_wall_s", shop.Sum)
	m.add("reserve.shop_ms_mean", shop.Mean()*1e3)
	m.add("reserve.confirmed", sumCounter(s, "reservations_confirmed_total"))
	m.add("reserve.rejected", sumCounter(s, "reservations_rejected_total"))

	m.add("agent.forwards_per_req", ratio(sumCounter(s, "agent_forwards_total"), req))
	m.add("agent.escalations_per_req", ratio(sumCounter(s, "agent_escalations_total"), req))
	m.add("agent.fallback_frac", ratio(sumCounter(s, "agent_fallbacks_total"), req))
	m.add("agent.pulls", sumCounter(s, "agent_pulls_total"))

	exch := mergedHistogram(s, "transport_exchange_latency_s")
	m.add("transport.exchanges_per_req", ratio(sumCounter(s, "transport_exchanges_total"), req))
	m.add("transport.exchange_p50_us", exch.Quantile(0.50)*1e6)
	m.add("transport.exchange_p99_us", exch.Quantile(0.99)*1e6)
	m.add("transport.retries", sumCounter(s, "transport_retries_total"))
	m.add("transport.busy", sumCounter(s, "transport_busy_total"))
	m.add("transport.shed", sumCounter(s, "transport_shed_total"))
	m.add("transport.pool_conns", sumGauge(s, "transport_pool_conns"))
}

// queueDepths returns the mean and the maximum of every per-resource
// sched_queue_depth value in the given name → value maps: the sampled
// points of a simulator run, or the final snapshot of a farm.
func queueDepths(points []map[string]float64) (mean, max float64) {
	var sum float64
	var n int
	for _, p := range points {
		for name, v := range p {
			if baseName(name) != "sched_queue_depth" {
				continue
			}
			sum += v
			n++
			if v > max {
				max = v
			}
		}
	}
	return ratio(sum, float64(n)), max
}
