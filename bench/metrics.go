package main

// scope says where a metric is reported.
type scope int

const (
	// gated metrics are the end-to-end metrics BENCHMARK.json bounds:
	// every workload reports each of them, untraced, and none is ever 0.
	gated scope = iota
	// wider metrics are end-to-end too, but apply to only some workloads
	// (ack latency to the farm, the §3.3 statistics to the simulator) or
	// are 0 on a healthy run (failed_frac), so BENCHMARK.json lists them
	// beside the per-layer metrics; -compare still holds them to Bound.
	wider
	// layer metrics describe one package; they have no bound.
	layer
)

// metricDef names one metric. Bound is the share of the baseline median
// by which the metric may get worse before -compare calls it worse; 0
// means the value must repeat exactly (a simulated statistic).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Scope  scope
}

const (
	lower  = "lower"
	higher = "higher"
)

// Bounds. Every gated metric carries 0.25, the most BENCHMARK.json may
// give. Over ten seeds the quartile spread of the allocation counts, which
// depend on the inputs alone, reaches 6–8% of the median on the two
// workloads whose cost follows their inputs (sim-ga-108, just past
// saturation, and sim-reserve-300, which costs what the 10% draw's
// reservations cost); the timings add the host, a shared 2-vCPU VM whose
// noisy phases take them from 6–11% to about 20%. A bound has to sit at three
// times the spread to tell a regression from a reseeding, and a run
// cannot be made longer to narrow it: the acceptance driver's time cap
// fixes its length. README.md lists the measured spread per workload.
var metricDefs = []metricDef{
	{"setup_s", "s", lower, 0.25, gated},
	{"req_per_s", "1/s", higher, 0.25, gated},
	{"cpu_ms_per_req", "ms", lower, 0.25, gated},
	{"alloc_kb_per_req", "KB", lower, 0.25, gated},
	{"mallocs_per_req", "count", lower, 0.25, gated},

	{"failed_frac", "frac", lower, 0, wider},
	{"ack_p50_ms", "ms", lower, 0.25, wider},
	{"ack_p99_ms", "ms", lower, 0.25, wider},
	{"eps_s", "s", higher, 0, wider},
	{"ups_pct", "%", higher, 0, wider},
	{"beta_pct", "%", higher, 0, wider},
	{"hit_frac", "frac", higher, 0, wider},

	// pace: the evaluation engine under every predictor call.
	{"pace.predict_ns", "ns", lower, 0, layer},
	{"pace.predict_cold_ns", "ns", lower, 0, layer},
	{"pace.cache_hit_frac", "frac", higher, 0, layer},
	{"pace.predict_calls_per_req", "count", lower, 0, layer},

	// schedule: building and costing one schedule at queue depth d.
	{"schedule.build_seq_ns_d16", "ns", lower, 0, layer},
	{"schedule.build_seq_ns_d64", "ns", lower, 0, layer},
	{"schedule.build_seq_ns_d256", "ns", lower, 0, layer},
	{"schedule.builder_build_ns_d16", "ns", lower, 0, layer},
	{"schedule.builder_build_ns_d64", "ns", lower, 0, layer},
	{"schedule.cost_ns_d16", "ns", lower, 0, layer},
	{"schedule.cost_ns_d64", "ns", lower, 0, layer},
	{"schedule.build_allocs", "count", lower, 0, layer},

	// scheduler: one Policy.Plan at queue depth d, and plans in a run.
	{"scheduler.plan_fifo_ns_d1", "ns", lower, 0, layer},
	{"scheduler.plan_fifo_ns_d16", "ns", lower, 0, layer},
	{"scheduler.plan_fifo_ns_d64", "ns", lower, 0, layer},
	{"scheduler.plan_fifo_ns_d256", "ns", lower, 0, layer},
	{"scheduler.plan_ga_ns_d1", "ns", lower, 0, layer},
	{"scheduler.plan_ga_ns_d16", "ns", lower, 0, layer},
	{"scheduler.plan_ga_ns_d64", "ns", lower, 0, layer},
	{"scheduler.plans_per_req", "count", lower, 0, layer},
	{"scheduler.plan_p50_us", "us", lower, 0, layer},
	{"scheduler.plan_p99_us", "us", lower, 0, layer},
	{"scheduler.plan_wall_frac", "frac", lower, 0, layer},
	{"scheduler.queue_depth_mean", "count", lower, 0, layer},
	{"scheduler.queue_depth_max", "count", lower, 0, layer},

	{"ga.generations_per_plan", "count", lower, 0, layer},
	{"ga.cost_evals_per_plan", "count", lower, 0, layer},

	{"reserve.quote_ns_b0", "ns", lower, 0, layer},
	{"reserve.quote_ns_b32", "ns", lower, 0, layer},
	{"reserve.quote_wall_s", "s", lower, 0, layer},
	{"reserve.shop_ms_mean", "ms", lower, 0, layer},
	{"reserve.confirmed", "count", higher, 0, layer},
	{"reserve.rejected", "count", lower, 0, layer},

	{"agent.decide_ns", "ns", lower, 0, layer},
	{"agent.pull_tick_ms_a1k", "ms", lower, 0, layer},
	{"agent.pull_tick_ms_a10k", "ms", lower, 0, layer},
	{"agent.shop_reservation_ms_a300", "ms", lower, 0, layer},
	{"agent.hops_mean", "count", lower, 0, layer},
	{"agent.forwards_per_req", "count", lower, 0, layer},
	{"agent.escalations_per_req", "count", lower, 0, layer},
	{"agent.fallback_frac", "frac", lower, 0, layer},
	{"agent.pulls", "count", lower, 0, layer},

	{"core.new_s_a1k", "s", lower, 0, layer},
	{"core.new_s_a10k", "s", lower, 0, layer},
	{"core.sim_events", "count", lower, 0, layer},
	{"core.events_per_s", "1/s", higher, 0, layer},
	{"sim.event_ns", "ns", lower, 0, layer},

	{"audit.observe_ns", "ns", lower, 0, layer},
	{"audit.events_per_req", "count", lower, 0, layer},
	{"trace.csvsink_event_ns", "ns", lower, 0, layer},

	{"xmlmsg.encode_xml_ns", "ns", lower, 0, layer},
	{"xmlmsg.decode_xml_ns", "ns", lower, 0, layer},
	{"xmlmsg.encode_bin_ns", "ns", lower, 0, layer},
	{"xmlmsg.decode_bin_ns", "ns", lower, 0, layer},
	{"xmlmsg.request_xml_bytes", "B", lower, 0, layer},
	{"xmlmsg.request_bin_bytes", "B", lower, 0, layer},

	{"transport.echo_rtt_us_xml", "us", lower, 0, layer},
	{"transport.echo_rtt_us_bin", "us", lower, 0, layer},
	{"transport.echo_req_per_s_c2", "1/s", higher, 0, layer},
	{"transport.exchanges_per_req", "count", lower, 0, layer},
	{"transport.exchange_p50_us", "us", lower, 0, layer},
	{"transport.exchange_p99_us", "us", lower, 0, layer},
	{"transport.retries", "count", lower, 0, layer},
	{"transport.busy", "count", lower, 0, layer},
	{"transport.shed", "count", lower, 0, layer},
	{"transport.pool_conns", "count", lower, 0, layer},

	// The harness's own spans: what set-up is made of, and how much of
	// the timed section the load generator itself used.
	{"setup.topology_build_ms", "ms", lower, 0, layer},
	{"setup.generate_ms", "ms", lower, 0, layer},
	{"setup.core_new_ms", "ms", lower, 0, layer},
	{"setup.submit_ms", "ms", lower, 0, layer},
	{"setup.start_farm_ms", "ms", lower, 0, layer},
	{"setup.first_pull_ms", "ms", lower, 0, layer},
	{"harness.self_frac", "frac", lower, 0, layer},

	{"telemetry.overhead_frac", "frac", lower, 0, layer},

	{"runtime.gc_cpu_frac", "frac", lower, 0, layer},
	{"runtime.num_gc", "count", lower, 0, layer},
	{"runtime.heap_sys_mb", "MB", lower, 0, layer},
	{"runtime.peak_rss_mb", "MB", lower, 0, layer},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// stat is one reported metric: the median over the run's samples, the
// quartiles of those samples and how many there were.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metricSet collects samples per metric name during a run.
type metricSet map[string][]float64

func (m metricSet) add(name string, v float64) { m[name] = append(m[name], v) }

// stats reduces every metric to its median and quartiles. A name with no
// definition is a bug in the harness, not an input error.
func (m metricSet) stats() map[string]stat {
	out := make(map[string]stat, len(m))
	for name, vs := range m {
		def, ok := findMetric(name)
		if !ok {
			panic("bench: metric " + name + " has no definition in metricDefs")
		}
		q1, q3 := quartiles(vs)
		out[name] = stat{Value: median(vs), Unit: def.Unit, Q1: q1, Q3: q3, N: len(vs)}
	}
	return out
}
