package main

import "netpath/internal/workload"

// metricDef describes one reported metric. The registries below are the
// single source of BENCHMARK.json's "end_to_end" and "per_layer" lists;
// metrics_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	// exact marks a count that must repeat exactly from run to run on
	// repro, which is deterministic; on serve_zipf every layer metric
	// depends on timing (tier 2 compiles in the background).
	exact bool
	// about says what an end-to-end metric measures; for a layer metric it
	// is the prediction: which end-to-end metric a change in it should
	// move, on which workload, and where it should move nothing.
	about string
}

// e2eMetrics are measured with tracing off. Every workload reports each
// of them; a workload's "unit of work" is one reproduction on repro and
// one request on the serve workloads.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower",
		about: "set-up: build inputs, interpret each distinct program on the reference VM, start the server (median of several set-ups)"},
	{name: "p50_ms", unit: "ms", better: "lower",
		about: "median unit latency: repro_s x 1000 on repro, client-side request latency on serve_zipf"},
	{name: "rps", unit: "1/s", better: "higher",
		about: "completed units per second of measurement: reproductions on repro, requests on serve_zipf"},
	{name: "peak_rss_mb", unit: "MB", better: "lower",
		about: "peak resident memory of the benchmark process during the measurement"},
}

// The per-program layer metrics are expanded over the nine benchmarks in
// Table-1 order.
var perProgram = []metricDef{
	{name: "dataflow.analyze_ms", unit: "ms", better: "lower",
		about: "repro_s on repro (separate dataflow.Analyze call per program); none on serve_zipf"},
	{name: "workload.build_ms", unit: "ms", better: "lower",
		about: "p99_ms and rps on serve_zipf (resolve runs on the HTTP goroutine, outside the worker pool)"},
	{name: "cfg.verify_ms", unit: "ms", better: "lower",
		about: "p99_ms and rps on serve_zipf (admission verify before queueing)"},
	{name: "dynamo.new_ms", unit: "ms", better: "lower",
		about: "repro_s on repro (Fig-5 cells; Static0 includes the static analysis); rps and p50_ms on serve_zipf"},
	{name: "dynamo.run_ms", unit: "ms", better: "lower",
		about: "repro_s on repro; rps and p50_ms on serve_zipf"},
}

var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{name: "staticpred.predict_ms", unit: "ms", better: "lower",
			about: "repro_s on repro (sum over the nine programs); none on serve_zipf"},
		{name: "profile.collect_steps_per_s", unit: "1/s", better: "higher",
			about: "repro_s on repro"},
		{name: "experiments.collect_s", unit: "s", better: "lower",
			about: "repro_s on repro"},
		{name: "experiments.sweep_s", unit: "s", better: "lower",
			about: "repro_s on repro"},
		{name: "experiments.fig5_s", unit: "s", better: "lower",
			about: "repro_s on repro; rps and p50_ms on serve_zipf (same dynamo engine)"},
		{name: "cfg.verify_ms", unit: "ms", better: "lower",
			about: "median over every cfg.VerifyProgram call of the run; p99_ms and rps on serve_zipf"},
		{name: "vm.steps_per_s", unit: "1/s", better: "higher",
			about: "repro_s on repro and rps on serve_zipf (reference interpretation during set-up)"},
		{name: "dynamo.steps_per_s", unit: "1/s", better: "higher",
			about: "repro_s on repro; rps on serve_zipf"},
		{name: "dynamo.cached_frac", unit: "ratio", better: "higher", exact: true,
			about: "repro_s on repro; rps on serve_zipf"},
		{name: "dynamo.steps", unit: "count", better: "lower", exact: true,
			about: "guest steps executed (work done); checks the oracle, moves nothing by itself"},
		{name: "dynamo.fragments", unit: "count", better: "lower", exact: true,
			about: "repro_s on repro; p50_ms on serve_zipf"},
		{name: "dynamo.flushes", unit: "count", better: "lower", exact: true,
			about: "repro_s on repro; p50_ms on serve_zipf"},
		{name: "dynamo.bailouts", unit: "count", better: "lower", exact: true,
			about: "repro_s on repro; p50_ms on serve_zipf"},
		{name: "tier2.promoted", unit: "count", better: "higher",
			about: "rps on serve_zipf; none on repro (tier 2 off)"},
		{name: "tier2.compiled", unit: "count", better: "higher",
			about: "rps on serve_zipf; none on repro"},
		{name: "tier2.dropped", unit: "count", better: "lower",
			about: "rps on serve_zipf; none on repro"},
		{name: "tier2.instr_frac", unit: "ratio", better: "higher",
			about: "rps on serve_zipf (T2Instrs/Steps); none on repro"},
		{name: "tier2.deopts", unit: "count", better: "lower",
			about: "rps on serve_zipf; none on repro"},
		{name: "snapshot.restore_ms", unit: "ms", better: "lower",
			about: "p50_ms on serve_zipf; none on repro"},
		{name: "snapshot.snapshot_ms", unit: "ms", better: "lower",
			about: "p50_ms on serve_zipf; none on repro"},
		{name: "snapshot.merge_ms", unit: "ms", better: "lower",
			about: "p50_ms on serve_zipf; none on repro"},
		{name: "snapshot.restored_frac", unit: "ratio", better: "higher",
			about: "p50_ms on serve_zipf (share of runs that warm-started); none on repro"},
		{name: "server.admit_ms.p50", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf (client latency - queue_ns - run_ns)"},
		{name: "server.admit_ms.p99", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf"},
		{name: "server.queue_wait_ms.p50", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf (queue_ns response field)"},
		{name: "server.queue_wait_ms.p99", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf"},
		{name: "server.run_ms.p50", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf (run_ns response field)"},
		{name: "server.run_ms.p99", unit: "ms", better: "lower",
			about: "p99_ms on serve_zipf"},
		{name: "trace.wall_s", unit: "s", better: "lower",
			about: "end-to-end time of the traced pass itself"},
		{name: "trace.overhead_ratio", unit: "ratio", better: "lower",
			about: "tracing overhead: traced wall time over the same requests' untraced HTTP time on serve_zipf, over the untraced repro_s median recorded on this host on repro (0 if none)"},
	}
	for _, pm := range perProgram {
		for _, b := range workload.Names() {
			d := pm
			d.name = pm.name + "." + b
			ms = append(ms, d)
		}
	}
	return ms
}()

// isExact reports whether d repeats exactly on the named workload.
func (d metricDef) isExact(workload string) bool { return d.exact && workload == "repro" }
