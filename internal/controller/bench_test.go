package controller

import (
	"math/rand"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// BenchmarkFlowSetup measures flow-setup throughput — classify, tag,
// install, verify — on a UNIV1-scale workload, comparing the AddClass loop
// (one pipeline run per class) against one AddClassBatch (one run for all
// of them). Both arms do identical verified work per class
// (install + 8 enforcement probes) and report two throughputs:
//
//   - classes/s: host wall-clock rate of the controller's compute
//     (classification, tagging, rule generation, probing).
//   - sim-classes/s: rate against simulated TCAM programming time at the
//     paper's 70 ms per rule install (§VIII-D). Every run programs its
//     devices concurrently and pays the slowest device's installs; the
//     loop pays that once per class, the batch once in all, with
//     per-switch updates coalesced into one critical section per table.
//     This metric is the flow-setup latency batching actually removes,
//     and — unlike wall clock — it does not depend on the benchmark
//     machine.

// benchWorkload builds a UNIV1-scale class set: shortest paths between
// random switch pairs of the UNIV1 fabric, common chains, modest rates so
// every class admits.
func benchWorkload(tb testing.TB) (*topology.Graph, []core.Class) {
	tb.Helper()
	g := topology.UNIV1()
	rng := rand.New(rand.NewSource(42))
	chains := policy.CommonChains()
	var classes []core.Class
	for id := 0; len(classes) < 90 && id < 1000; id++ {
		src := topology.NodeID(rng.Intn(g.NumNodes()))
		dst := topology.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		path, err := g.ShortestPath(src, dst)
		if err != nil || len(path) < 2 {
			continue
		}
		classes = append(classes, core.Class{
			ID:       core.ClassID(len(classes)),
			Path:     path,
			Chain:    chains[rng.Intn(len(chains))],
			RateMbps: 40 + rng.Float64()*120,
		})
	}
	return g, classes
}

func benchController(tb testing.TB, g *topology.Graph) *Controller {
	tb.Helper()
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// runSerialArm installs and verifies every class through the AddClass
// loop, returning the simulated TCAM programming time it accrued.
func runSerialArm(tb testing.TB, c *Controller, classes []core.Class) time.Duration {
	tb.Helper()
	before := metrics.FlowSetup.SimInstall.Load()
	for _, cl := range classes {
		if err := c.AddClass(cl); err != nil {
			tb.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
		if err := c.CheckClassEnforcement(cl.ID); err != nil {
			tb.Fatalf("verify class %d: %v", cl.ID, err)
		}
	}
	return time.Duration(metrics.FlowSetup.SimInstall.Load() - before)
}

// runBatchArm installs and verifies the same classes as one batch,
// returning its simulated TCAM programming makespan.
func runBatchArm(tb testing.TB, c *Controller, classes []core.Class) time.Duration {
	tb.Helper()
	before := metrics.FlowSetup.SimInstall.Load()
	if err := c.AddClassBatch(classes, BatchOptions{Verify: true}); err != nil {
		tb.Fatalf("AddClassBatch: %v", err)
	}
	return time.Duration(metrics.FlowSetup.SimInstall.Load() - before)
}

func BenchmarkFlowSetup(b *testing.B) {
	g, classes := benchWorkload(b)

	report := func(b *testing.B, sim time.Duration) {
		b.ReportMetric(float64(len(classes)*b.N)/b.Elapsed().Seconds(), "classes/s")
		b.ReportMetric(float64(len(classes))/sim.Seconds(), "sim-classes/s")
	}

	b.Run("serial", func(b *testing.B) {
		var sim time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := benchController(b, g)
			b.StartTimer()
			sim = runSerialArm(b, c, classes)
		}
		report(b, sim)
	})

	b.Run("batch", func(b *testing.B) {
		var sim time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := benchController(b, g)
			b.StartTimer()
			sim = runBatchArm(b, c, classes)
		}
		report(b, sim)
	})
}

// TestFlowSetupSpeedup pins the benchmark's acceptance bar: on the
// UNIV1-scale workload one batch's flow-setup throughput in simulated
// TCAM programming time must beat the AddClass loop by at least 3x.
// Wall-clock throughput is reported by BenchmarkFlowSetup, not asserted.
func TestFlowSetupSpeedup(t *testing.T) {
	g, classes := benchWorkload(t)
	serial := runSerialArm(t, benchController(t, g), classes)
	batch := runBatchArm(t, benchController(t, g), classes)
	if serial <= 0 || batch <= 0 {
		t.Fatalf("degenerate simulated install times: serial=%v batch=%v", serial, batch)
	}
	speedup := serial.Seconds() / batch.Seconds()
	t.Logf("simulated TCAM programming: serial=%v batch=%v speedup=%.1fx", serial, batch, speedup)
	if speedup < 3 {
		t.Fatalf("batched flow setup only %.2fx faster than the loop in simulated install time, want >= 3x", speedup)
	}
}
