package main

// layerRow maps a layer's metrics to the end-to-end metric they should move
// and the workload where they should not. Every traced run record carries
// this table, so a per-layer number always arrives with its reading.
type layerRow struct {
	Layer         string   `json:"layer"`
	Metrics       []string `json:"metrics"`
	MeasuredBy    string   `json:"measured_by"`
	ShouldMove    string   `json:"should_move"`
	ShouldNotMove string   `json:"should_not_move"`
}

var layerMap = []layerRow{
	{"serve", []string{"serve.source_frac.{surrogate,cache,store,peer,coalesced,solve}", "serve.latency_ms.{surrogate,cache,store,peer,solve}"},
		"the body's source field and the generator's due-time latency",
		"fleet latency_p50_ms (surrogate, cache) and latency_tail_ms (store, peer)", "cold"},
	{"serve", []string{"serve.other_ms"},
		"client send-to-receive time minus the request's top-level access-log stages: HTTP, JSON, handler, and a fresh solve's persist marshal",
		"fleet latency_p50_ms", "cold"},
	{"serve", []string{"serve.queue_wait_ms", "serve.shed_frac"},
		"queue_wait stage; 429/503 answers / attempted",
		"cold latency_p50_ms; failed", "market"},
	{"serve", []string{"serve.solves_per_unique_key"},
		"serve.solve.executed delta / distinct exact keys (cold: timed phase; fleet: turnover)",
		"cold throughput_per_s, fleet setup_s", "market"},
	{"engine", []string{"engine.solve_ms", "engine.iterations_per_solve", "engine.iteration_ms", "engine.estimator_ms"},
		"direct Session.SolveContext of the first cold keys with a ReqTrace; estimator = solve minus sweeps",
		"cold throughput_per_s, latency_p50_ms, latency_tail_ms", "fleet timed phase"},
	{"engine", []string{"engine.warm_iterations_per_solve"},
		"(*policy.MFGCP).Equilibrium(k).Iterations after each Prepare past the first epoch",
		"market throughput_per_s", "fleet"},
	{"engine", []string{"engine.cachekey_us", "engine.cache_get_us", "engine.cache_hit_frac"},
		"direct CacheKey and (*Cache).Get; engine.cache.hit/miss deltas",
		"fleet latency_p50_ms", "cold"},
	{"engine", []string{"engine.blob_bytes", "engine.marshal_ms", "engine.unmarshal_ms"},
		"direct MarshalEquilibrium/UnmarshalEquilibrium",
		"fleet latency_tail_ms, heap_live_mb; marshal_ms also cold latency_p50_ms", "market"},
	{"pde", []string{"pde.hjb_sweep_ms", "pde.fpk_sweep_ms"},
		"ReqTrace stages of the direct solves, per fixed-point iteration",
		"cold", "fleet"},
	{"mec/sde", []string{"mec.terms_ns", "sde.cache_drift_ns"},
		"direct UtilityContext.Terms and CacheDrift.Rate at grid states",
		"cold (these callbacks are about 70% of its CPU)", "fleet"},
	{"linalg", []string{"linalg.batch_solve_us"},
		"direct TridiagBatch.SolveInterleaved at the default grid's q-line shape",
		"cold (about 8% of its CPU, so at most that)", "fleet"},
	{"store", []string{"store.get_ms", "store.hit_frac", "store.put_drops"},
		"direct (*store.Store).Get; store.hit/miss and store.put.dropped deltas",
		"fleet latency_tail_ms; put_drops counts lost persists in cold", "market"},
	{"cluster", []string{"cluster.fetch_ms", "cluster.peer_hit_frac", "cluster.forwarded_frac"},
		"peer_fill stage; cluster.peer_hit, cluster.forwarded, serve.solve.requests deltas",
		"fleet latency_tail_ms (a peer miss falls back to a local solve of about 1 s)", "cold, market"},
	{"surrogate", []string{"surrogate.lookup_us", "surrogate.hit_frac", "surrogate.bound_use_max"},
		"direct (*surrogate.Table).Lookup on a probe table; serve.surrogate.hit/miss deltas; largest surrogate deviation from the exact solve over its declared bound (above 1 fails the run)",
		"fleet latency_p50_ms", "cold, market"},
	{"policy", []string{"policy.prepare_ms", "policy.solves_per_epoch", "policy.nonconverged_frac"},
		"a wrapping Policy timing Prepare, cross-checked against EpochStats.StrategyTime; core.solver.solves delta; Equilibrium(k).Converged",
		"market throughput_per_s", "cold, fleet"},
	{"sim", []string{"sim.step_ms"},
		"epoch wall time minus Prepare",
		"market throughput_per_s", "cold, fleet"},
	{"runtime", []string{"runtime.alloc_mb_per_request", "runtime.gc_cpu_frac"},
		"runtime/metrics deltas over the timed phase (market: per epoch)",
		"fleet latency_tail_ms, cold throughput_per_s", "-"},
	{"gen", []string{"gen.{sent,succeeded,failed}.{setup,timed}", "gen.late_ms_p99"},
		"the benchmark's generator",
		"validity: a late generator invalidates fleet latency", "-"},
	{"trace", []string{"trace.overhead_frac.<end-to-end metric>"},
		"traced minus untraced run of the same seed, over the untraced value",
		"none", "-"},
}

// interactions records how layer changes reach the end-to-end metrics.
var interactions = []string{
	"cold: the solve is the blocking step, so engine, pde and mec gains pass to throughput_per_s almost 1:1; a serve-layer change moves cold by at most serve.other_ms / latency",
	"fleet: on two cores codec CPU competes with every request (the owner marshals each peer fill, every store or peer hit unmarshals, GC churns the blobs), so a codec saving can cut latency_tail_ms by more than its own share",
	"market: Prepare is about 90% of each epoch, so warm-path solver gains pass through; sim.step_ms bounds the rest",
}
