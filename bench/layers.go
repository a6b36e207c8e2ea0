package main

// metricDef declares one reported metric. The lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (a test holds the two
// together), the timed run reports every end-to-end metric and the traced
// run every per-layer metric, on every workload. A per-layer metric that a
// workload's layers take no part in reads 0 there.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a count fixed by the seed: two runs of the same code must
	// agree on it to the last digit.
	exact bool
}

// The time bounds are the contract's widest. On the shared 2-vCPU hosts
// this runs on, identical work drifts by 10-40 % over minutes (CPU time
// with it); dividing by the run's host pace (pace.go) brings ten runs of
// one commit to within 5-10 % between quartiles, now and then 15 %, so a
// tighter gate would still reject the parent against itself. Counts and
// retained memory repeat and keep tight bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "round_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "unit_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "unit_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "best_speedup", unit: "x", better: "higher", bound: 0.05, exact: true},
}

var perLayer = []metricDef{
	{name: "ir.base_instrs", unit: "count", better: "lower", exact: true},
	{name: "ir.clone_us", unit: "us", better: "lower"},
	{name: "ir.verify_us", unit: "us", better: "lower"},

	{name: "core.mutate_us", unit: "us", better: "lower"},
	{name: "core.variant_us", unit: "us", better: "lower"},
	{name: "core.step_self_s", unit: "s", better: "lower"},
	{name: "core.evals", unit: "count", better: "lower", exact: true},
	{name: "core.fitness_hits", unit: "count", better: "higher", exact: true},
	{name: "core.fitness_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.valid_ratio", unit: "ratio", better: "higher"},
	{name: "core.raw_speedup", unit: "x", better: "higher", exact: true},
	{name: "core.pool_util", unit: "ratio", better: "higher"},

	{name: "gpu.hash_us", unit: "us", better: "lower"},
	{name: "gpu.compile_us", unit: "us", better: "lower"},
	{name: "gpu.prepare_busy_s", unit: "s", better: "lower"},
	{name: "gpu.program_hit_ratio", unit: "ratio", better: "higher"},
	{name: "gpu.launch_busy_s", unit: "s", better: "lower"},
	{name: "gpu.dyn_instrs", unit: "count", better: "lower", exact: true},
	{name: "gpu.sim_instrs_per_s", unit: "1/s", better: "higher"},
	{name: "gpu.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "gpu.threaded_over_interp", unit: "x", better: "higher"},
	{name: "gpu.sim_ms", unit: "ms", better: "lower", exact: true},

	{name: "workload.eval_p50_ms", unit: "ms", better: "lower"},
	{name: "workload.eval_tail_ms", unit: "ms", better: "lower"},
	{name: "workload.failed_eval_busy_share", unit: "ratio", better: "lower"},
	{name: "workload.validate_ms", unit: "ms", better: "lower"},
	{name: "workload.holdout_pass_ratio", unit: "ratio", better: "higher"},

	{name: "synth.new_ms", unit: "ms", better: "lower"},

	{name: "island.step_self_s", unit: "s", better: "lower"},
	{name: "island.snapshot_us", unit: "us", better: "lower"},
	{name: "island.save_us", unit: "us", better: "lower"},
	{name: "island.load_us", unit: "us", better: "lower"},
	{name: "island.checkpoint_bytes", unit: "bytes", better: "lower", exact: true},

	{name: "serve.submit_ms", unit: "ms", better: "lower"},
	{name: "serve.wait_ms", unit: "ms", better: "lower"},
	{name: "serve.result_ms", unit: "ms", better: "lower"},
	{name: "serve.eval_busy_share", unit: "ratio", better: "higher"},
	{name: "serve.slices", unit: "count", better: "lower", exact: true},
	{name: "serve.ledger_writes", unit: "count", better: "lower"},
	{name: "serve.ledger_write_s", unit: "s", better: "lower"},
	{name: "serve.errors", unit: "count", better: "lower", exact: true},
	{name: "serve.open_ms", unit: "ms", better: "lower"},
	{name: "serve.cached_submit_us", unit: "us", better: "lower"},
	{name: "serve.status_us", unit: "us", better: "lower"},
	{name: "serve.list_us", unit: "us", better: "lower"},

	{name: "obs.scrape_us", unit: "us", better: "lower"},
	{name: "obs.scrape_bytes", unit: "bytes", better: "lower"},
	{name: "obs.series", unit: "count", better: "lower"},
	{name: "obs.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "obs.alloc_mb", unit: "MB", better: "lower"},
	{name: "obs.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "obs.unattributed_share", unit: "ratio", better: "lower"},
	{name: "obs.host_pace", unit: "x", better: "lower"},

	{name: "fail_share", unit: "ratio", better: "lower", exact: true},
}
