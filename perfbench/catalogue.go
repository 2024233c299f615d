package main

// catalogue lists every metric the benchmark can report, with its unit
// and direction; BENCHMARK.json must list the same end-to-end and
// per-layer metrics (catalogue_test.go checks it). Metrics of a layer a
// workload does not exercise read 0 in that workload's traced run.
var catalogue = []specMetric{
	// End-to-end, measured with tracing off, every workload.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
	{Name: "eff_vs_static", Unit: "ratio", Better: "higher", Bound: 0.2},

	// Per-layer, from the traced section.
	{Name: "trace.gen_s", Unit: "s", Better: "lower"},
	{Name: "trace.next_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower"},
	{Name: "experiment.build_s", Unit: "s", Better: "lower"},
	{Name: "experiment.search_s", Unit: "s", Better: "lower"},
	{Name: "experiment.profile_s", Unit: "s", Better: "lower"},
	{Name: "experiment.search_sims", Unit: "count", Better: "lower"},
	{Name: "experiment.memo_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "experiment.loocv_s", Unit: "s", Better: "lower"},
	{Name: "experiment.fold_s_p50", Unit: "s", Better: "lower"},
	{Name: "experiment.train_s", Unit: "s", Better: "lower"},
	{Name: "experiment.figures_s", Unit: "s", Better: "lower"},
	{Name: "oracle_share", Unit: "frac", Better: "higher"},
	{Name: "cpu.sim_runs", Unit: "count", Better: "lower"},
	{Name: "cpu.sim_insts", Unit: "count", Better: "lower"},
	{Name: "cpu.sim_cycles", Unit: "count", Better: "lower"},
	{Name: "cpu.build_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "cpu.static_run_s", Unit: "s", Better: "lower"},
	{Name: "cpu.static_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: "higher"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "core.profiles", Unit: "count", Better: "lower"},
	{Name: "core.reconfigs", Unit: "count", Better: "lower"},
	{Name: "core.phase_changes", Unit: "count", Better: "lower"},
	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.close_s", Unit: "s", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower"},
	{Name: "store.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "serve.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "serve.engine_predict_us", Unit: "us", Better: "lower"},
	{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.status_2xx", Unit: "count", Better: "higher"},
	{Name: "serve.status_429", Unit: "count", Better: "lower"},
	{Name: "serve.status_5xx", Unit: "count", Better: "lower"},
	{Name: "p50_ms_low", Unit: "ms", Better: "lower"},
	{Name: "p99_ms_low", Unit: "ms", Better: "lower"},
	{Name: "p50_ms_high", Unit: "ms", Better: "lower"},
	{Name: "p99_ms_high", Unit: "ms", Better: "lower"},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_count", Unit: "count", Better: "lower"},
}

// endToEnd reports whether a catalogue entry is an end-to-end metric.
func (m specMetric) endToEnd() bool { return m.Bound > 0 }

// unitOf returns a metric's unit ("" for a name outside the catalogue).
func unitOf(name string) string {
	for _, m := range catalogue {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
