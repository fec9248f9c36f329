package main

// metricDef names a metric of the final result line and its unit.
type metricDef struct {
	Name, Unit string
}

// gatedE2E are the end-to-end metrics every workload reports in its
// final line: the end_to_end section of BENCHMARK.json, in order (a
// self-test keeps the two in step).
var gatedE2E = []metricDef{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_round", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run: the per_layer section of
// BENCHMARK.json, in order. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	// campaign
	{"campaign.cell_ms.p50", "ms"},
	{"campaign.cell_ms.max", "ms"},
	{"campaign.worker_idle_share", "share"},
	// set-up: deploy + mac inside the sim constructors
	{"deploy.generate_ms.p50", "ms"},
	{"sim.new_network_ms.p50", "ms"},
	{"sim.new_trajectory_ms.p50", "ms"},
	{"sim.first_round_ms.p50", "ms"},
	{"sim.setup_share", "share"},
	// sim
	{"sim.round_ms.p50", "ms"},
	{"sim.step_ms.p50", "ms"},
	{"sim.prep_ms.p50", "ms"},
	{"sim.aggregate_ms.p50", "ms"},
	{"sim.accumulate_us.p50", "us"},
	{"sim.unaccounted_share", "share"},
	// air
	{"air.receive_ms.p50", "ms"},
	{"air.receive_allocs", "count"},
	{"air.samples_accumulated", "count"},
	{"air.noise_samples", "count"},
	// synth
	{"synth.template_busy_ms", "ms"},
	{"synth.accumulate_busy_ms", "ms"},
	{"synth.accumulate_calls", "count"},
	// core
	{"core.decode_ms.p50", "ms"},
	{"core.decode_allocs", "count"},
	{"core.spectra_decode_ms.p50", "ms"},
	{"core.ffts_per_round", "count"},
	{"core.candidates_per_round", "count"},
	{"core.detect_ratio", "share"},
	{"core.crc_ok_ratio", "share"},
	// dsp
	{"dsp.spectra_sum_ms.p50", "ms"},
	{"dsp.emit_mb_per_round", "MB"},
	// serve
	{"serve.create_ms.p50", "ms"},
	{"serve.tenant_heap_kb", "KB"},
	{"serve.step_ack_ms.p50", "ms"},
	{"serve.step_ack_ms.p99", "ms"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.queued_turns.mean", "count"},
	{"serve.queued_turns.max", "count"},
	{"serve.throttled", "count"},
	{"serve.errors", "count"},
	{"serve.stream_missed", "count"},
	// loadgen
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.late_share", "share"},
	// runtime
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	// host and tracing validity
	{"host.steal_share", "share"},
	{"trace.overhead_share", "share"},
}
