package main

// metric is one reported number's definition. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// smoke test fails when the two disagree.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them from an untraced run. An operation is one RunBatch
// call, one campaign, one HTTP request or one clustered campaign; a served
// request runs one trial, so trials_per_s is also the request rate.
// Compute-bound times are scaled to the reference speed (calib.go).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"trials_per_s", "trials/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p90_ms", "ms", "lower", 0.20},
	{"alloc_kb_per_trial", "kB", "lower", 0.05},
}

// perLayer are the traced run's layer metrics. Each is measured from
// outside the layer, around calls into its public functions on inputs
// derived from the seed; a *_marginal_* metric is the layer's time minus
// the layer below it on identical inputs. bench/README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metric{
	{Name: "gen.connected_gnp_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.attempts", Unit: "count", Better: "lower"},
	{Name: "gen.parallel_gnp_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.is_connected_ms", Unit: "ms", Better: "lower"},
	{Name: "radio.engine_new_ms", Unit: "ms", Better: "lower"},
	{Name: "radio.trial_ms", Unit: "ms", Better: "lower"},
	{Name: "radio.trial_ms_small", Unit: "ms", Better: "lower"},
	{Name: "radio.observed_trial_ms", Unit: "ms", Better: "lower"},
	{Name: "radio.rounds_per_trial", Unit: "count", Better: "lower"},
	{Name: "core.schedule_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.schedule_rounds", Unit: "count", Better: "lower"},
	{Name: "lanes.engine_new_ms", Unit: "ms", Better: "lower"},
	{Name: "lanes.first_block_alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "lanes.alloc_kb_per_block", Unit: "kB", Better: "lower"},
	{Name: "lanes.ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "lanes.runblocks_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.runseeds_marginal_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.session_marginal_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.time_marginal_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.fallbacks", Unit: "count", Better: "lower"},
	{Name: "exec.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "facade.runbatch_marginal_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.run_marginal_us", Unit: "us", Better: "lower"},
	{Name: "campaign.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "campaign.fixed_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.checkpoint_marginal_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.checkpoint_kb", Unit: "kB", Better: "lower"},
	{Name: "serve.transport_marginal_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_marginal_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.turnaround_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.idle_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.offers_busy", Unit: "count", Better: "lower"},
	{Name: "cluster.leases_reassigned", Unit: "count", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "higher"},
}

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
