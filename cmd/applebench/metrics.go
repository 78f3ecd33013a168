package main

// The metric and workload declarations. BENCHMARK.json at the repository
// root must list exactly these (TestBenchmarkJSONMatches); the binary
// prints every end-to-end metric with --trace 0 and every per-layer
// metric with --trace 1, on every workload.

type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
	Doc    string
}

type workloadDecl struct {
	Name string
	Why  string
	// TailPct is the percentile run.op_tail_ms reports on this workload: the
	// highest one with at least ten samples beyond it at the operation
	// count a 10 s run reaches on the 2-core reference box. It is fixed so
	// that runs of different length stay comparable.
	TailPct float64
}

var workloads = []workloadDecl{
	{"paper_lifecycle", "cold policy-to-enforced class life on the paper's four topologies; headerspace, core and lp do nearly all the work, the controller and data plane almost none", 50},
	{"diurnal_reopt", "steady-state re-optimisation and failover on long-lived controllers; warm LP and small make-before-break transactions dominate, cold solves are bypassed", 95},
	{"fattree_admit", "write path only: class churn at 41k installed classes on FatTree-16; controller transactions and flowtable republish do the work, lp does none", 99},
	{"fattree_walk", "read path only: two readers walk packets over 40k installed classes; flowtable lookup, host injection and Forward, with no writer", 99},
	{"fattree_mixed", "reads beside writes: one churn writer and one packet reader share the tables, so a publish or lookup scheme that helps one side at the other's cost shows", 99},
}

// endToEnd metrics are the gated ones: each is meaningful and non-zero on
// all five workloads, and each repeats from run to run whatever the host
// is doing. Only set-up is a time. Operation and walk times are run.op_ms
// and run.walk_us in the per-layer set: on the shared reference host the
// same binary runs 1.3 to 1.9 times slower for minutes at a stretch, which
// no bound the contract allows (0.25) can gate; README.md has the numbers.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25, "median of three full set-ups: input generation, state build or preload, and the warm-up operations"},
	{"live_heap_mb", "MB", "lower", 0.10, "HeapAlloc after runtime.GC() at the end of the measured phase"},
	{"alloc_mb_per_kop", "MB", "lower", 0.10, "TotalAlloc growth per 1000 operations: median over laps on paper_lifecycle, over the first 8 days on diurnal_reopt, over the phase elsewhere"},
	{"tcam_rules", "count", "lower", 0.05, "flow-table entries the workload's final state occupies (per lap on the paper workloads)"},
	{"instances", "count", "lower", 0.05, "NF instances the final state uses (placed per lap on the paper workloads)"},
}

// perLayer metrics come from the traced half of a --trace 1 run. A metric
// whose layer a workload never enters reads 0 there.
var perLayer = []metricDecl{
	// The timings of the run, demoted from end-to-end because the host's
	// speed, not the program's, sets their run-to-run spread. They come from
	// the untraced half of the traced run, all samples.
	{Name: "run.op_ms", Unit: "ms", Better: "lower", Doc: "median wall time of one workload operation, over every operation"},
	{Name: "run.walk_us", Unit: "us", Better: "lower", Doc: "median wall time per packet walked through Controller.Forward: per reader burst where readers walk, per timed walk elsewhere"},
	{Name: "run.op_tail_ms", Unit: "ms", Better: "lower", Doc: "tail of the operation time at the workload's fixed percentile"},
	{Name: "run.walk_tail_us", Unit: "us", Better: "lower", Doc: "p99 of the individually timed Forward calls"},
	{Name: "run.ops_per_s", Unit: "1/s", Better: "higher", Doc: "operations over the time spent in operations, every one counted; packets per wall second over all readers on fattree_walk"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Doc: "traced over untraced median operation time, minus one"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Doc: "spans recorded in the traced phase"},

	{Name: "policy.compile_us", Unit: "us", Better: "lower", Doc: "ApplyHierarchy time per class compiled"},
	{Name: "policy.compiles", Unit: "count", Better: "lower", Doc: "class policies compiled per operation"},
	{Name: "headerspace.build_ms", Unit: "ms", Better: "lower", Doc: "median NewClassifier (atom computation)"},
	{Name: "headerspace.classify_ns", Unit: "ns", Better: "lower", Doc: "Classify per header"},
	{Name: "headerspace.atoms", Unit: "count", Better: "lower", Doc: "atoms per operation"},
	{Name: "headerspace.share", Unit: "ratio", Better: "lower", Doc: "headerspace self time over operation time"},

	{Name: "core.build_problem_ms", Unit: "ms", Better: "lower", Doc: "median Scenario.MeanProblem"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower", Doc: "median Engine.Solve"},
	{Name: "core.solve_share", Unit: "ratio", Better: "lower", Doc: "Engine.Solve self time over operation time"},
	{Name: "core.place_warm_ms", Unit: "ms", Better: "lower", Doc: "median IncrementalEngine.Place"},
	{Name: "core.warm_accept_share", Unit: "ratio", Better: "higher", Doc: "Place calls whose carried basis was accepted"},
	{Name: "core.solve.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.solve.bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "lp.pivots", Unit: "count", Better: "lower", Doc: "simplex pivots per operation (phase 1 + 2 + dual)"},
	{Name: "lp.dual_pivots", Unit: "count", Better: "lower", Doc: "dual-simplex pivots per operation"},
	{Name: "lp.phase1_ms", Unit: "ms", Better: "lower", Doc: "phase-1 time per operation"},
	{Name: "lp.phase2_ms", Unit: "ms", Better: "lower", Doc: "phase-2 time per operation"},
	{Name: "lp.warm_hit_share", Unit: "ratio", Better: "higher", Doc: "re-solves served from the previous basis"},

	{Name: "controller.install_placement_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.check_enforcement_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.reoptimize_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.rules_touched", Unit: "count", Better: "lower", Doc: "rules installed + removed by ReOptimize per operation"},
	{Name: "controller.classes_updated", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "controller.classes_rate_only", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "controller.classes_unchanged", Unit: "count", Better: "higher", Doc: "per operation"},
	{Name: "controller.observe_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.transitions", Unit: "count", Better: "lower", Doc: "failover transitions per operation; not bit-repeatable"},
	{Name: "controller.failover_us_per_transition", Unit: "us", Better: "lower", Doc: "Observe wall time over transitions handled"},
	{Name: "controller.loss_with_handler", Unit: "ratio", Better: "lower", Doc: "mean LossRate after Observe"},
	{Name: "controller.loss_without_handler", Unit: "ratio", Better: "lower", Doc: "mean LossRate of a twin controller that has no Dynamic Handler"},
	{Name: "controller.add_batch_ms", Unit: "ms", Better: "lower", Doc: "median AddClassBatch of one 2048-class chunk during preload"},
	{Name: "controller.bulk_classes_per_s", Unit: "1/s", Better: "higher", Doc: "preload classes over preload wall time"},
	{Name: "controller.add_class_us", Unit: "us", Better: "lower"},
	{Name: "controller.remove_class_us", Unit: "us", Better: "lower"},
	{Name: "controller.txn_committed", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "controller.txn_unwound", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "controller.admit_growth_ratio", Unit: "ratio", Better: "lower", Doc: "median AddClass at full preload over median at one eighth of it"},
	{Name: "controller.forward_ns", Unit: "ns", Better: "lower", Doc: "median timed Forward"},
	{Name: "controller.forward_share", Unit: "ratio", Better: "lower", Doc: "Forward self time over reader wall time, scaled by the timing stride"},
	{Name: "controller.hops_per_walk", Unit: "count", Better: "lower", Doc: "switch visits per walk"},
	{Name: "controller.walk_pkts_per_s", Unit: "1/s", Better: "higher", Doc: "packets walked per wall second over all readers"},
	{Name: "controller.add_class.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "controller.add_class.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "controller.reoptimize.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "controller.reoptimize.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "controller.forward.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "controller.forward.bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "flowtable.hot_table_rules", Unit: "count", Better: "lower", Doc: "rules in the busiest switch table"},
	{Name: "flowtable.lookup_ns", Unit: "ns", Better: "lower", Doc: "Lookup on a replica of that table"},
	{Name: "flowtable.lookup_allocs", Unit: "count", Better: "lower"},
	{Name: "flowtable.process_ns", Unit: "ns", Better: "lower", Doc: "Pipeline.Process on that switch"},
	{Name: "flowtable.apply_batch1_us", Unit: "us", Better: "lower", Doc: "one-rule ApplyBatch on the replica: the republish cost at that size"},
	{Name: "flowtable.table_compiles", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "flowtable.table_contention", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "flowtable.installed_rules", Unit: "count", Better: "lower", Doc: "per operation"},
	{Name: "flowtable.skipped_share", Unit: "ratio", Better: "higher", Doc: "skip-if-present hits over staged rules"},

	{Name: "host.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "orchestrator.instances", Unit: "count", Better: "lower"},
	{Name: "orchestrator.place_now_us", Unit: "us", Better: "lower"},

	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.series_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.scenario_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Doc: "over the traced phase"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Doc: "over the traced phase"},
}

func findWorkload(name string) (workloadDecl, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDecl{}, false
}
