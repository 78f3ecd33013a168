// Command applebench is the repository's benchmark: five closed-loop
// workloads over the whole class life (policy compile → classification →
// placement solve → rule generation → transactional install → packet walk
// → failover → re-optimisation), each measured end to end with tracing
// off and, in a separate run, attributed to layers by spans recorded
// around every call into a layer's public API. README.md has the load
// shape, the metric tables and the reasons for the workloads.
//
// One invocation runs one workload:
//
//	applebench --workload fattree_admit --seed 1 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. It starts no child
// process and listens on nothing; every goroutine is joined before the
// result prints, and a watchdog ends the process if a run hangs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the state sizes (classes, probes) for smoke tests; the
	// benchmark proper always runs at 1.
	scale float64
	// units, when positive, replaces the time budget by a fixed number of
	// operations (laps on the paper workloads), so counts can be compared
	// exactly between two runs. Only -selfcheck sets it.
	units int
	// outDir receives the run envelope and the span file.
	outDir string
}

// budget bounds one measured phase: by time, or by operations when the
// run asked for fixed work.
type budget struct {
	d     time.Duration
	units int
}

func (b budget) spent(start time.Time, done int) bool {
	if b.units > 0 {
		return done >= b.units
	}
	return time.Since(start) >= b.d
}

// phase is what one measured pass over a workload yields: the samples
// and totals behind the end-to-end metrics, and the raw sums the traced
// run's per-layer metrics are derived from (layerMetrics).
type phase struct {
	opMs []float64 // wall time of each operation
	// walkUs is wall time per walked packet: one sample per individually
	// timed walk where the writer walks (the paper workloads,
	// fattree_admit), one per reader burst, divided by its packets, where
	// readers do. fwdUs is the individually timed Forward calls alone.
	walkUs, fwdUs []float64
	// weight is the work one operation sample stands for and parallel the
	// number of goroutines producing them: 1 and 1, except on fattree_walk,
	// whose operation is a burst of walkBurst packets by one of two readers.
	weight, parallel float64
	checks
	tcamRules float64
	instances float64
	// allocPerKop is MB allocated per 1000 operations: one sample per lap
	// on paper_lifecycle, one over a fixed number of laps on diurnal_reopt,
	// one over the whole phase elsewhere. The metric is the median.
	allocPerKop []float64
	gcCycles    uint32
	gcPause     time.Duration

	c counts
	// policy / headerspace / core (paper_lifecycle).
	compileNs, classifyNs       float64
	compiles, classifies, atoms int
	placeCalls, warmAccepted    int
	solveAllocs                 allocMeter
	// controller.
	observeNs              float64
	transitions            int
	lossWith, lossWithout  float64
	lossSamples            int
	reoptAllocs, addAllocs allocMeter
	walks, hops            int
	forwardNs              float64 // time inside the timed walks
	readerWallNs           float64 // wall time summed over reader goroutines
	readerPktsPerS         float64
}

// checks counts operations, probes and audits, and those that failed;
// the first few failures are kept so a failing run says what broke.
type checks struct {
	attempted, failed int
	notes             []string
}

// check counts one attempt; a non-nil err is a failure of the system under
// test.
func (c *checks) check(err error, what string, args ...any) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(what, args...)+": "+err.Error())
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

// work is the number of operations the phase completed (packets, on
// fattree_walk).
func (p *phase) work() float64 { return p.weight * float64(len(p.opMs)) }

// workload is one of the five load shapes. Mutation of a Controller is
// single-caller by contract, so every workload has exactly one writer
// goroutine (the caller of measure) and at most nproc−1 readers.
type workload interface {
	// setup builds everything measurement needs, warm-up operations
	// included, discarding any earlier state.
	setup(tr *tracer) error
	// measure runs whole operations until the budget is spent.
	measure(b budget, tr *tracer) (*phase, error)
	// verify runs the end-of-run audits.
	verify() checks
	// probe measures single layers directly on the final state.
	probe(out map[string]float64)
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "paper_lifecycle":
		return &lifecycle{cfg: cfg}, nil
	case "diurnal_reopt":
		return &diurnal{cfg: cfg}, nil
	case "fattree_admit", "fattree_walk", "fattree_mixed":
		return newFatTree(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 3

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envelope is the run record written beside the result, so two runs can
// be compared without re-deriving anything.
type envelope struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	CPUModel   string             `json:"cpu_model"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Scale      float64            `json:"scale"`
	Traced     bool               `json:"traced"`
	Operations int                `json:"operations"`
	SetupS     []float64          `json:"setup_s"`
	Timings    map[string]summary `json:"timings"`
	Result     result             `json:"result"`
}

// report is everything one run measured.
type report struct {
	checks
	// endToEnd is always filled (from the untraced half, in a traced run);
	// perLayer only in a traced run.
	endToEnd, perLayer map[string]float64
	env                envelope
}

// result picks the metrics the run was asked for: every end-to-end metric
// with tracing off, every per-layer metric with tracing on.
func (r *report) result(traced bool) result {
	decls, values := endToEnd, r.endToEnd
	if traced {
		decls, values = perLayer, r.perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, m := range decls {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return res
}

// run executes one workload.
func run(cfg config) (*report, error) {
	decl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}

	// Set-up, repeated; the traced run records spans on the last one.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	repeats := setupRepeats
	if cfg.scale < 1 {
		repeats = 1 // smoke tests and -selfcheck
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		var str *tracer
		if i == repeats-1 {
			str = tr
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(str); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupSpans := 0
	if tr != nil {
		setupSpans = len(tr.spans)
	}

	// Measurement. The untraced run spends the whole budget with tracing
	// off. The traced run spends half of it untraced and half traced on
	// the same state; the difference between the halves is the tracing
	// overhead, and the per-layer metrics come from the traced half.
	b := budget{d: time.Duration(cfg.seconds * float64(time.Second)), units: cfg.units}
	if cfg.trace {
		b.d /= 2
	}
	plain, err := w.measure(b, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep := &report{
		checks: plain.checks,
		endToEnd: map[string]float64{
			"setup_s":          median(setups),
			"live_heap_mb":     float64(ms.HeapAlloc) / (1 << 20),
			"alloc_mb_per_kop": median(plain.allocPerKop),
			"tcam_rules":       plain.tcamRules,
			"instances":        plain.instances,
		},
		env: envelope{
			Commit: gitCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc: runtime.NumCPU(), CPUModel: cpuModel(),
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: cfg.trace,
			Operations: int(plain.work()), SetupS: setups,
			Timings: map[string]summary{
				"op_ms": summarize(plain.opMs), "walk_us": summarize(plain.walkUs), "forward_us": summarize(plain.fwdUs),
			},
		},
	}
	if cfg.trace {
		traced, err := w.measure(b, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", cfg.workload, err)
		}
		rep.merge(traced.checks)
		rep.perLayer = layerMetrics(tr, setupSpans, plain, traced)
		rep.perLayer["run.op_ms"] = median(plain.opMs)
		rep.perLayer["run.walk_us"] = median(plain.walkUs)
		rep.perLayer["run.op_tail_ms"] = percentile(plain.opMs, decl.TailPct)
		rep.perLayer["run.walk_tail_us"] = percentile(plain.fwdUs, 99)
		rep.perLayer["run.ops_per_s"] = ratio(plain.parallel*plain.work(), sum(plain.opMs)/1e3)
		w.probe(rep.perLayer)
		if err := tr.writeJSONL(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl")); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.env.Timings["traced_op_ms"] = summarize(traced.opMs)
		for name, st := range aggregate(tr.spans) {
			rep.env.Timings["span_ns:"+name] = summarize(st.durNs)
		}
	}
	rep.merge(w.verify())
	rep.env.Result = rep.result(cfg.trace)
	return rep, nil
}

// layerMetrics derives the per-layer metrics from the spans, the counter
// deltas and the sums of the traced phase. The direct layer probes
// (workload.probe) add theirs afterwards.
func layerMetrics(tr *tracer, setupSpans int, plain, traced *phase) map[string]float64 {
	v := make(map[string]float64)
	stats := aggregate(tr.spans)
	med := func(span string, perNs float64) float64 {
		if st := stats[span]; st != nil {
			return median(st.durNs) / perNs
		}
		return 0
	}
	const us, ms = 1e3, 1e6
	v["headerspace.build_ms"] = med("headerspace.build", ms)
	v["core.build_problem_ms"] = med("core.build_problem", ms)
	v["core.solve_ms"] = med("core.solve", ms)
	v["core.place_warm_ms"] = med("core.place", ms)
	v["controller.install_placement_ms"] = med("controller.install_placement", ms)
	v["controller.check_enforcement_ms"] = med("controller.check_enforcement", ms)
	v["controller.reoptimize_ms"] = med("controller.reoptimize", ms)
	v["controller.observe_ms"] = med("controller.observe", ms)
	v["controller.add_batch_ms"] = med("controller.add_batch", ms)
	v["controller.add_class_us"] = med("controller.add_class", us)
	v["controller.remove_class_us"] = med("controller.remove_class", us)
	v["controller.forward_ns"] = med("controller.forward", 1)
	v["experiments.scenario_ms"] = med("experiments.scenario", ms)
	v["topology.build_ms"] = med("topology.build", ms)
	v["traffic.series_ms"] = med("traffic.series", ms)

	// Shares of operation time, from self times (a span minus what its
	// children cover).
	opNs := 0.0
	if st := stats["op"]; st != nil {
		opNs = sum(st.durNs)
	}
	selfOf := func(prefix string) float64 {
		t := 0.0
		for name, st := range stats {
			if name == prefix || layerOf(name) == prefix {
				t += st.selfNs
			}
		}
		return t
	}
	v["core.solve_share"] = ratio(selfOf("core.solve"), opNs)
	v["headerspace.share"] = ratio(selfOf("headerspace"), opNs)

	c, ops := traced.c, traced.work()
	per := func(i int) float64 { return ratio(float64(c[i]), ops) }
	v["lp.pivots"] = per(cP1Pivots) + per(cP2Pivots) + per(cDualPivots)
	v["lp.dual_pivots"] = per(cDualPivots)
	v["lp.phase1_ms"] = per(cP1Nanos) / ms
	v["lp.phase2_ms"] = per(cP2Nanos) / ms
	v["lp.warm_hit_share"] = ratio(float64(c[cWarmHits]), float64(c[cWarmHits]+c[cWarmMisses]))
	v["controller.rules_touched"] = per(cRulesTouched)
	v["controller.classes_updated"] = per(cClassesUpdated)
	v["controller.classes_rate_only"] = per(cClassesRateOnly)
	v["controller.classes_unchanged"] = per(cClassesUnchanged)
	v["controller.txn_committed"] = per(cTxnCommitted)
	v["controller.txn_unwound"] = per(cTxnUnwound)
	v["flowtable.table_compiles"] = per(cTableCompiles)
	v["flowtable.table_contention"] = per(cTableContention)
	v["flowtable.installed_rules"] = per(cInstalledRules)
	v["flowtable.skipped_share"] = ratio(float64(c[cSkippedRules]), float64(c[cStagedRules]))

	v["runtime.gc_cycles"] = float64(traced.gcCycles)
	v["runtime.gc_pause_ms_total"] = float64(traced.gcPause) / ms
	v["trace.spans"] = float64(len(tr.spans) - setupSpans)
	v["trace.overhead_share"] = ratio(median(traced.opMs), median(plain.opMs)) - 1

	t := traced
	v["policy.compile_us"] = ratio(t.compileNs/us, float64(t.compiles))
	v["policy.compiles"] = ratio(float64(t.compiles), ops)
	v["headerspace.classify_ns"] = ratio(t.classifyNs, float64(t.classifies))
	v["headerspace.atoms"] = ratio(float64(t.atoms), ops)
	v["core.warm_accept_share"] = ratio(float64(t.warmAccepted), float64(t.placeCalls))
	v["core.solve.allocs_per_op"], v["core.solve.bytes_per_op"] = t.solveAllocs.perOp()
	v["controller.transitions"] = ratio(float64(t.transitions), ops)
	v["controller.failover_us_per_transition"] = ratio(t.observeNs/us, float64(t.transitions))
	v["controller.loss_with_handler"] = ratio(t.lossWith, float64(t.lossSamples))
	v["controller.loss_without_handler"] = ratio(t.lossWithout, float64(t.lossSamples))
	v["controller.reoptimize.allocs_per_op"], v["controller.reoptimize.bytes_per_op"] = t.reoptAllocs.perOp()
	v["controller.add_class.allocs_per_op"], v["controller.add_class.bytes_per_op"] = t.addAllocs.perOp()
	v["controller.hops_per_walk"] = ratio(float64(t.hops), float64(t.walks))
	v["controller.forward_share"] = ratio(t.forwardNs*walkStride, t.readerWallNs)
	v["controller.walk_pkts_per_s"] = t.readerPktsPerS
	return v
}

// memMark holds the allocation and collector totals at the start of a
// phase.
type memMark struct{ ms runtime.MemStats }

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	return m
}

// since fills the phase's GC fields with the growth since the mark.
func (m memMark) since(p *phase) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.gcCycles = now.NumGC - m.ms.NumGC
	p.gcPause = time.Duration(now.PauseTotalNs - m.ms.PauseTotalNs)
}

// allocPerKop adds one sample to the phase: the MB allocated since the
// mark per 1000 of the ops operations done since.
func (m memMark) allocPerKop(p *phase, ops float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.allocPerKop = append(p.allocPerKop, ratio(float64(now.TotalAlloc-m.ms.TotalAlloc)/(1<<20), ops/1000))
}

// gitCommit reads the checked-out commit from .git without running git
// (the benchmark starts no child process); "unknown" outside a work tree.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// watchdog ends the process if a run overruns three times its expected
// length instead of hanging the caller: set-up and audits are allowed 40 s
// (they take 6 to 12 s at full scale on the reference box).
func watchdog(seconds float64) *time.Timer {
	limit := time.Duration(3 * (40 + seconds) * float64(time.Second))
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "applebench: watchdog: run exceeded %v, giving up\n", limit)
		os.Exit(3)
	})
}

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr)) }

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("applebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var selfcheck bool
	fs.StringVar(&cfg.workload, "workload", "", "one of: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: class order, probe sampling, lap order and phase")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink state sizes for smoke tests (the benchmark runs at 1)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the run envelope and the span file")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice at reduced scale and report whether the exact counts repeat")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintln(stderr, "applebench: bad arguments")
		fs.Usage()
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "applebench: %v\n", err)
		return 1
	}
	if selfcheck {
		return runSelfcheck(cfg, stdout, stderr)
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		fmt.Fprintf(stderr, "applebench: --workload must be one of: %s\n", workloadNames())
		return 2
	}
	defer watchdog(cfg.seconds).Stop()

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "applebench: %v\n", err)
		return 1
	}
	envPath := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-trace%d.json", cfg.workload, trace))
	if err := writeJSON(envPath, rep.env); err != nil {
		fmt.Fprintf(stderr, "applebench: %v\n", err)
		return 1
	}
	res := rep.env.Result
	fmt.Fprintf(stderr, "%s seed=%d operations=%d (op_ms n=%d, walk_us n=%d) envelope=%s\n",
		cfg.workload, cfg.seed, rep.env.Operations, rep.env.Timings["op_ms"].N, rep.env.Timings["walk_us"].N, envPath)
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
	}
	for _, m := range decls {
		fmt.Fprintf(stderr, "  %-40s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "applebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "applebench: %d of %d checks failed\n", res.Failed, res.Attempted)
		for _, note := range rep.notes {
			fmt.Fprintf(stderr, "  %s\n", note)
		}
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
