package main

// metricDef declares one metric the benchmark prints. The tables below
// are the single definition; BENCHMARK.json mirrors them and
// smoke_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a metric may worsen; end-to-end only
}

// workloadDef names one workload and fixes how its latency samples are
// read: the unit operation timed, the tail percentile reported (the
// highest with at least ten samples beyond it at the default sizes),
// and the latency limit behind slo_share: about twice the workload's
// median on the sizing machine (three times on batch_distinct, whose
// trips differ most in length), so the share sits just below 1 and a
// slower tail eats into it.
type workloadDef struct {
	Name  string
	Why   string
	Op    string  // what one latency sample measures
	TailQ float64 // percentile behind lat_tail_ms
	SLOMs float64 // an operation slower than this, failed or refused misses the limit
}

var workloads = []workloadDef{
	{
		Name:  "batch_distinct",
		Why:   "cold start: every trip new on an empty router; tree builds take about half the time, nn least. Unresolved: transition share 0.77, under the 0.8 asked; nothing is evicted here. Shows routing changes",
		Op:    "Model.Match of one trip",
		TailQ: 0.75, SLOMs: 250,
	},
	{
		Name:  "batch_hot",
		Why:   "hot set replayed, router fully cached: time splits between scoring, transition features and shortcuts; a routing change must not move it",
		Op:    "Model.Match of one trip",
		TailQ: 0.90, SLOMs: 90,
	},
	{
		Name:  "serve_hot",
		Why:   "POST /v1/match over the hot set, closed loop then open loop at half the closed-loop capacity: adds decode, admission, encode and two requests in flight",
		Op:    "open-loop POST /v1/match, from its due time",
		TailQ: 0.90, SLOMs: 90,
	},
	{
		Name:  "stream_hot",
		Why:   "session endpoints, one point per POST: same scoring layers on the causal incremental path, per-point HTTP and JSON",
		Op:    "one session: create, one POST per point, finish",
		TailQ: 0.90, SLOMs: 130,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one of them; what lat_* times on each workload is
// workloadDef.Op.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_tail_ms", "ms", "lower", 0.25},
	{"slo_share", "share", "higher", 0.10},
	{"cpu_ms_per_point", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"path_precision", "share", "higher", 0.03},
	{"path_recall", "share", "higher", 0.03},
}

// perLayer lists the metrics of a traced run, one layer (module) per
// name prefix.
var perLayer = []metricDef{
	{Name: "synth.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.new_model_s", Unit: "s", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},
	{Name: "core.weights_mb", Unit: "MB", Better: "lower"},
	{Name: "roadnet.tree_build_ms", Unit: "ms", Better: "lower"},
	{Name: "roadnet.tree_builds_per_point", Unit: "count", Better: "lower"},
	{Name: "roadnet.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "roadnet.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "roadnet.route_dist_hot_us", Unit: "us", Better: "lower"},
	{Name: "roadnet.route_between_hot_us", Unit: "us", Better: "lower"},
	{Name: "spatial.nearest_us_per_point", Unit: "us", Better: "lower"},
	{Name: "traj.sanitize_us_per_point", Unit: "us", Better: "lower"},
	{Name: "nn.obs_mlp_us_per_row", Unit: "us", Better: "lower"},
	{Name: "nn.trans_fuse_us_per_row", Unit: "us", Better: "lower"},
	{Name: "nn.selfattn_us_per_point", Unit: "us", Better: "lower"},
	{Name: "nn.attkeys_us_per_row", Unit: "us", Better: "lower"},
	{Name: "hmm.self_us_per_point", Unit: "us", Better: "lower"},
	{Name: "hmm.obs_calls_per_point", Unit: "count", Better: "lower"},
	{Name: "hmm.trans_calls_per_point", Unit: "count", Better: "lower"},
	{Name: "core.stage.candidates_share", Unit: "share", Better: "lower"},
	{Name: "core.stage.transition_share", Unit: "share", Better: "lower"},
	{Name: "core.stage.shortcuts_share", Unit: "share", Better: "lower"},
	{Name: "core.stage.backtrack_share", Unit: "share", Better: "lower"},
	{Name: "core.stage.expand_share", Unit: "share", Better: "lower"},
	{Name: "core.match_inproc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stream_push_inproc_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.push_overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.body_bytes_per_point", Unit: "count", Better: "lower"},
	{Name: "serve.shed_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.send_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// The HTTP workloads' definitions, for the arms that reuse their
// drivers.
var (
	serveHot, _  = workloadByName("serve_hot")
	streamHot, _ = workloadByName("stream_hot")
)
