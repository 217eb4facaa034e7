package main

// kind classifies a metric by how runs of it are compared.
type kind int

const (
	// hostTime metrics are end-to-end host measurements; BENCHMARK.json
	// lists them under end_to_end with their bound.
	hostTime kind = iota
	// exact metrics are simulated or counted outcomes: deterministic, so
	// any difference between two sets of runs is a change.
	exact
	// layer metrics come from the traced run; BENCHMARK.json lists them
	// under per_layer. They carry no bound.
	layer
)

// metricSpec is one entry of the metric catalog. BENCHMARK.json must agree
// with it (bench_test.go checks names, units, directions and bounds).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which a hostTime metric
	// may get worse before compare calls it worse. It is 0.25 for every
	// host-time metric: ten-run quartile spreads on the shared 2-CPU host
	// reach 20-25% in its slow periods (README.md, Baselines).
	Bound float64
	Kind  kind
}

// catalog lists every metric the benchmark can emit, in output order.
// README.md defines each one.
var catalog = []metricSpec{
	{"setup_s", "s", "lower", 0.25, hostTime},
	{"wall_s", "s", "lower", 0.25, hostTime},
	{"jobs_per_s", "1/s", "higher", 0.25, hostTime},
	{"latency_p50_ms", "ms", "lower", 0.25, hostTime},
	{"latency_p99_ms", "ms", "lower", 0.25, hostTime},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25, hostTime},
	{"peak_rss_mb", "MB", "lower", 0.25, hostTime},

	{"io_ssp_speedup_mean", "x", "higher", 0, exact},
	{"ooo_ssp_gain", "x", "higher", 0, exact},
	{"tune_best_speedup_gmean", "x", "higher", 0, exact},
	{"failed_share", "share", "lower", 0, exact},

	{"workloads.build_s", "s", "lower", 0, layer},
	{"profile.collect_s", "s", "lower", 0, layer},
	{"ssp.adapt_s", "s", "lower", 0, layer},
	{"ssp.certify_s", "s", "lower", 0, layer},
	{"ssp.slices", "count", "higher", 0, layer},
	{"ir.parse_s", "s", "lower", 0, layer},
	{"ir.link_s", "s", "lower", 0, layer},
	{"decode.predecode_s", "s", "lower", 0, layer},
	{"threaded.compile_s", "s", "lower", 0, layer},
	{"sim.run_s.in-order", "s", "lower", 0, layer},
	{"sim.run_s.ooo", "s", "lower", 0, layer},
	{"sim.run_s.interp", "s", "lower", 0, layer},
	{"sim.ns_per_cycle.in-order", "ns", "lower", 0, layer},
	{"sim.ns_per_cycle.ooo", "ns", "lower", 0, layer},
	{"sim.minstrs_per_s.in-order", "M/s", "higher", 0, layer},
	{"sim.minstrs_per_s.ooo", "M/s", "higher", 0, layer},
	{"sim.minstrs_per_s.interp", "M/s", "higher", 0, layer},
	{"sim.ipc.in-order", "instr/cycle", "higher", 0, layer},
	{"sim.ipc.ooo", "instr/cycle", "higher", 0, layer},
	{"sim.ff_cycle_share.in-order", "share", "higher", 0, layer},
	{"sim.ff_cycle_share.ooo", "share", "higher", 0, layer},
	{"sim.fast_forwards", "count", "higher", 0, layer},
	{"sim.spec_instr_share", "share", "higher", 0, layer},
	{"sim.cell_s_max", "s", "lower", 0, layer},
	{"mem.l1_hit_rate", "share", "higher", 0, layer},
	{"mem.miss_cycles_per_access", "cycles", "lower", 0, layer},
	{"mem.tlb_misses", "count", "lower", 0, layer},
	{"mem.prefetch_accuracy", "share", "higher", 0, layer},
	{"check.conservation_s", "s", "lower", 0, layer},
	{"exp.pool_reuse", "count", "higher", 0, layer},
	{"serve.hits", "count", "higher", 0, layer},
	{"serve.misses", "count", "lower", 0, layer},
	{"serve.unsafe", "count", "lower", 0, layer},
	{"serve.rejected", "count", "lower", 0, layer},
	{"serve.retries_429", "count", "lower", 0, layer},
	{"serve.pool_reuse", "count", "higher", 0, layer},
	{"serve.server_ms_p50.hit", "ms", "lower", 0, layer},
	{"serve.server_ms_p50.miss", "ms", "lower", 0, layer},
	{"serve.transport_ms_p50", "ms", "lower", 0, layer},
	{"serve.sse_ms_p50", "ms", "lower", 0, layer},
	{"tune.rounds", "count", "lower", 0, layer},
	{"tune.round_s_p50", "s", "lower", 0, layer},
	{"tune.converged_share", "share", "higher", 0, layer},
	{"trace.overhead_share", "share", "lower", 0, layer},
}

// specOf returns the catalog entry for a metric name.
func specOf(name string) (metricSpec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// namesOf lists the catalog names of one kind, in catalog order.
func namesOf(k kind) []string {
	var out []string
	for _, s := range catalog {
		if s.Kind == k {
			out = append(out, s.Name)
		}
	}
	return out
}
