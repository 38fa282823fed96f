package main

// metricDef names one reported number. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // better: "higher"
}

// endToEnd are the numbers an operator running soundserve beside a
// pipeline would see. None of them can be 0, because a regression bound
// is a share of the parent's value: failures are not a metric here but
// the result line's failed/attempted counts, and the two verdict-quality
// fractions are stated as the share that is right, not the share wrong.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"points_per_s", "points/s", true},
	{"verdict_lat_p50_ms", "ms", false},
	{"verdict_lat_p99_ms", "ms", false},
	{"cpu_s_per_mpoint", "cpu-s/Mpoint", false},
	{"rss_peak_mb", "MiB", false},
	{"verdict_agree_frac", "fraction", true},
	{"conclusive_frac", "fraction", true},
}

// perLayer are single-module numbers, <module>.<metric>. Counts come
// from the child's final /stats; timings from the in-process replay of
// the first slice of the same input (trace.go).
var perLayer = []metricDef{
	{"wire.decode_ns_per_point", "ns/point", false},
	{"wire.decode_allocs_per_point", "allocs/point", false},
	{"wire.bytes_per_point", "B/point", false},
	{"ingest.transport_ns_per_point", "ns/point", false},
	{"ingest.publish_ns_per_verdict", "ns/verdict", false},
	{"ingest.verdict_lat_whole_p99_ms", "ms", false},
	{"ingest.shard_skew", "ratio", false},
	{"ingest.ingested", "count", true},
	{"ingest.consumed", "count", true},
	{"ingest.dropped", "count", false},
	{"ingest.decode_errors", "count", false},
	{"ingest.outcomes_dropped", "count", false},
	{"ingest.check_churn_p50_ms", "ms", false},
	{"stream.graph_ns_per_point", "ns/point", false},
	{"stream.edge_depth_max", "frames", false},
	{"checker.operator_ns_per_point", "ns/point", false},
	{"checker.window_ns_per_point", "ns/point", false},
	{"checker.verdicts", "count", true},
	{"checker.evicted_groups", "count", false},
	{"checker.dropped_late", "count", false},
	{"checker.rejected_events", "count", false},
	{"checker.draws_per_window", "draws/window", false},
	{"checker.draws_per_verdict", "draws/verdict", false},
	{"checker.shared_hit_ratio", "ratio", true},
	{"checker.retired_early_frac", "fraction", true},
	{"resample.extract_ns_per_point", "ns/point", false},
	{"resample.draw_point_ns_per_value", "ns/value", false},
	{"resample.draw_iid_ns_per_value", "ns/value", false},
	{"resample.draw_block_ns_per_value", "ns/value", false},
	{"core.evaluate_ns_per_window", "ns/window", false},
	{"core.score_ns_per_sample", "ns/sample", false},
	{"core.samples_per_verdict", "samples", false},
	{"core.sample_budget_used", "fraction", false},
	{"core.compile_ms", "ms", false},
	{"stat.credible_interval_ns", "ns", false},
	{"loadgen.lag_p99_ms", "ms", false},
	{"loadgen.achieved_rate_pts_s", "points/s", true},
	{"loadgen.host_index", "ratio", false},
	{"trace.overhead_frac", "fraction", false},
	{"trace.unattributed_frac", "fraction", false},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pack attaches units to values; a value missing for a listed metric is
// a bug in the caller and is reported, not defaulted.
func pack(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
