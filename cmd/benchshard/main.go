// Command benchshard measures the regional-sharding control plane at
// scale: the same synthetic class workload is admitted through a
// ShardedController at increasing shard counts, and the classes/s
// admission rate, per-shard heap, and cross-shard audit result are
// written to a machine-readable BENCH_scale.json tracked across PRs
// alongside BENCH_dataplane.json and BENCH_lp.json.
//
// When this was written the curve was super-linear: every flow-table
// publication and transaction pre-image scaled with the tables already
// installed, so R regions each holding C/R classes did strictly less
// total work than one region holding C, and sharding paid even on a
// single core (the committed BENCH_scale.json). Publication and undo
// are now O(delta), the one-core curve is nearly flat (DESIGN.md §16),
// and the report is what remains useful: rates, heap per shard and the
// cross-shard audit.
//
// The -min-speedup gate fails the run (exit 1) if the classes/s rate at
// the highest shard count is not at least the given multiple of the
// single-shard rate; make and CI pass 0, which gates only the audit.
//
// Usage:
//
//	benchshard                                    # FatTree(16), 100k classes, shards 1,2,4
//	benchshard -topo fattree32 -classes 1000000   # million-class run
//	benchshard -out - -min-speedup 2              # JSON to stdout, gate at 2x
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/shard"
	"github.com/apple-nfv/apple/internal/topology"
)

// ShardReport is one shard count's admission measurement.
type ShardReport struct {
	Shards          int     `json:"shards"`
	Workers         int     `json:"workers"`
	Classes         int     `json:"classes"`
	Admitted        int     `json:"admitted"`
	Seconds         float64 `json:"seconds"`
	ClassesPerSec   float64 `json:"classes_per_sec"`
	Speedup         float64 `json:"speedup_vs_one_shard"`
	HeapMB          float64 `json:"heap_mb"`
	HeapPerShardMB  float64 `json:"heap_per_shard_mb"`
	RuleUpdates     uint64  `json:"rule_updates"`
	AuditViolations int     `json:"audit_violations"`
}

// Report is the whole BENCH_scale.json document.
type Report struct {
	GeneratedAt string        `json:"generated_at"`
	Topology    string        `json:"topology"`
	Switches    int           `json:"switches"`
	Classes     int           `json:"classes"`
	Seed        int64         `json:"seed"`
	MinSpeedup  float64       `json:"gate_min_speedup"`
	Runs        []ShardReport `json:"runs"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		topoName    = flag.String("topo", "fattree16", "scale topology: fattree16, fattree32, as-ensemble")
		classes     = flag.Int("classes", 100_000, "number of traffic classes to admit")
		shardsFlag  = flag.String("shards", "1,2,4", "comma-separated shard counts to run")
		seed        = flag.Int64("seed", 1, "deterministic workload seed")
		out         = flag.String("out", "BENCH_scale.json", "output path, or - for stdout")
		minSpeedup  = flag.Float64("min-speedup", 1, "fail (exit 1) unless classes/s at the highest shard count is at least this multiple of the 1-shard rate")
		chunk       = flag.Int("chunk", 2048, "classes per AddClassBatch transaction")
		ingressPods = flag.Int("ingress-pods", 4, "fat-tree pods acting as class ingresses (concentration drives per-table state)")
	)
	flag.Parse()
	if f := os.Getenv("BENCHSHARD_CPUPROFILE"); f != "" {
		pf, err := os.Create(f)
		if err == nil {
			pprof.StartCPUProfile(pf)
			defer pprof.StopCPUProfile()
		}
	}

	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchshard: %v\n", err)
		return 2
	}
	g, hosts, gen, err := buildWorkload(*topoName, *seed, *ingressPods)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchshard: %v\n", err)
		return 2
	}
	cls := gen(*classes)

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Topology:    g.Name(),
		Switches:    g.NumNodes(),
		Classes:     *classes,
		Seed:        *seed,
		MinSpeedup:  *minSpeedup,
	}
	var oneShardRate float64
	for _, n := range shardCounts {
		sr, err := measure(g, hosts, cls, n, *seed, *chunk)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchshard: %d shards: %v\n", n, err)
			return 1
		}
		if n == 1 {
			oneShardRate = sr.ClassesPerSec
		}
		if oneShardRate > 0 {
			sr.Speedup = sr.ClassesPerSec / oneShardRate
		}
		rep.Runs = append(rep.Runs, sr)
		fmt.Fprintf(os.Stderr, "shards %2d  admitted %7d/%d  %7.2fs  %9.0f classes/s  %5.2fx  heap/shard %6.1f MB  violations %d\n",
			sr.Shards, sr.Admitted, sr.Classes, sr.Seconds, sr.ClassesPerSec, sr.Speedup,
			sr.HeapPerShardMB, sr.AuditViolations)
	}

	if err := writeReport(*out, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchshard: %v\n", err)
		return 1
	}
	last := rep.Runs[len(rep.Runs)-1]
	if last.AuditViolations != 0 {
		fmt.Fprintf(os.Stderr, "GATE: FAIL — %d cross-shard audit violations\n", last.AuditViolations)
		return 1
	}
	if last.Shards > 1 && oneShardRate > 0 && last.Speedup < *minSpeedup {
		fmt.Fprintf(os.Stderr, "GATE: FAIL — %d-shard speedup %.2fx below minimum %.2fx\n",
			last.Shards, last.Speedup, *minSpeedup)
		return 1
	}
	fmt.Fprintf(os.Stderr, "GATE: ok — %d-shard speedup %.2fx (min %.2fx), zero audit violations\n",
		last.Shards, last.Speedup, *minSpeedup)
	return 0
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts")
	}
	return out, nil
}

// buildWorkload returns the scale topology, its hosting switches, and a
// closed-form class generator — paths come from structural coordinates,
// never a graph search, so generating a million classes is O(classes).
func buildWorkload(name string, seed int64, ingressPods int) (*topology.Graph, []topology.NodeID, func(int) []core.Class, error) {
	switch name {
	case "fattree16", "fattree32":
		k := 16
		if name == "fattree32" {
			k = 32
		}
		l, err := topology.FatTree(k)
		if err != nil {
			return nil, nil, nil, err
		}
		half := k / 2
		if ingressPods < 1 || ingressPods > k {
			ingressPods = k
		}
		var hosts []topology.NodeID
		for _, nd := range l.Graph.Nodes() {
			hosts = append(hosts, nd.ID)
		}
		gen := func(n int) []core.Class {
			cls := make([]core.Class, n)
			for i := 0; i < n; i++ {
				srcPod := i % ingressPods
				srcEdge := (i / ingressPods) % half
				dstPod := (srcPod + 1 + i%(k-1)) % k
				dstEdge := (i / (k * half)) % half
				path, err := l.Path(srcPod, srcEdge, dstPod, dstEdge, i)
				if err != nil {
					panic(err)
				}
				cls[i] = core.Class{
					ID:       core.ClassID(i),
					Path:     path,
					Chain:    policy.Chain{policy.Firewall},
					RateMbps: 1,
				}
			}
			return cls
		}
		return l.Graph, hosts, gen, nil
	case "as-ensemble":
		g, err := topology.ASEnsemble(8, 40, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		var nodes []topology.NodeID
		for _, nd := range g.Nodes() {
			nodes = append(nodes, nd.ID)
		}
		gen := func(n int) []core.Class {
			cls := make([]core.Class, n)
			for i := 0; i < n; i++ {
				// Single-switch paths over the ensemble nodes: enough to
				// exercise placement without a per-class graph search.
				src := nodes[i%len(nodes)]
				cls[i] = core.Class{
					ID:       core.ClassID(i),
					Path:     []topology.NodeID{src},
					Chain:    policy.Chain{policy.Firewall},
					RateMbps: 1,
				}
			}
			return cls
		}
		return g, nodes, gen, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown topology %q", name)
	}
}

func measure(g *topology.Graph, hosts []topology.NodeID, cls []core.Class, shards int, seed int64, chunk int) (ShardReport, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	s, err := shard.New(shard.Config{
		Topology:      g,
		Regions:       shards,
		Workers:       1, // single-core box: the curve isolates per-shard state reduction
		Seed:          seed,
		HostSwitches:  hosts,
		HostResources: policy.Resources{Cores: 1 << 20, MemoryMB: 1 << 30},
	})
	if err != nil {
		return ShardReport{}, err
	}

	start := time.Now()
	admitted := 0
	// Constant per-region transaction size: each regional controller
	// commits batches of `chunk` classes whatever the shard count, so the
	// runs compare per-shard state, not transaction-count artifacts.
	step := chunk * shards
	for lo := 0; lo < len(cls); lo += step {
		hi := lo + step
		if hi > len(cls) {
			hi = len(cls)
		}
		// Admission rejections under pressure are legitimate; the audit
		// below is the correctness bar.
		_ = s.AddClassBatch(cls[lo:hi], controller.BatchOptions{})
	}
	elapsed := time.Since(start)
	admitted = len(s.Classes())

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapMB := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	if after.HeapAlloc < before.HeapAlloc {
		heapMB = float64(after.HeapAlloc) / (1 << 20)
	}

	violations := 0
	if err := s.Audit(); err != nil {
		violations = 1
	}
	var rules uint64
	for r := 0; r < s.Regions(); r++ {
		rc, rerr := s.Region(r)
		if rerr != nil {
			return ShardReport{}, rerr
		}
		rules += uint64(rc.RuleUpdates())
	}
	return ShardReport{
		Shards:          shards,
		Workers:         1,
		Classes:         len(cls),
		Admitted:        admitted,
		Seconds:         elapsed.Seconds(),
		ClassesPerSec:   float64(admitted) / elapsed.Seconds(),
		HeapMB:          heapMB,
		HeapPerShardMB:  heapMB / float64(shards),
		RuleUpdates:     rules,
		AuditViolations: violations,
	}, nil
}

func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
