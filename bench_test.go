// Benchmark harness: ablations of the design choices called out in
// DESIGN.md §3 (EXPERIMENTS.md's Ablations table is read from
// `go test -bench 'Ablation' -benchtime 1x .`), plus the end-to-end
// enforcement probe. The paper's tables and figures are regenerated by
// cmd/applereport, not by benchmarks.
package apple_test

import (
	"testing"
	"time"

	apple "github.com/apple-nfv/apple"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// geant builds the GEANT scenario at the paper's scale but with a
// shortened series (the engines see the same per-snapshot problem sizes).
func geant(b *testing.B) *experiments.Scenario {
	b.Helper()
	sc, err := experiments.GEANT(experiments.Options{Seed: 1, Snapshots: 96})
	if err != nil {
		b.Fatalf("scenario: %v", err)
	}
	return sc
}

// BenchmarkAblation_Aggregation shows why §IV-A aggregates flows into
// classes: solve time grows superlinearly with input size.
func BenchmarkAblation_Aggregation(b *testing.B) {
	sc := geant(b)
	for _, classes := range []int{15, 30, 60} {
		b.Run(className(classes), func(b *testing.B) {
			sc.MaxClasses = classes
			prob, err := sc.MeanProblem()
			if err != nil {
				b.Fatal(err)
			}
			engine := core.NewEngine(core.EngineOptions{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(prob); err != nil {
					b.Fatalf("solve: %v", err)
				}
			}
		})
	}
	sc.MaxClasses = 60
}

func className(n int) string {
	switch n {
	case 15:
		return "classes-15"
	case 30:
		return "classes-30"
	default:
		return "classes-60"
	}
}

// BenchmarkAblation_CrossProduct measures the TCAM blow-up on switches
// without pipelining (§V-B): merging APPLE's table with a routing table
// versus keeping them pipelined.
func BenchmarkAblation_CrossProduct(b *testing.B) {
	// APPLE table: 24 classification rules; routing table: 40 routes.
	appleTable := flowtable.NewTable()
	for i := 0; i < 24; i++ {
		if err := appleTable.Install(flowtable.Rule{
			Name: "cls", Priority: 10 + i,
			Match: flowtable.Match{}.WithSrc(flowtable.Prefix{Addr: uint32(10<<24 | i<<12), Len: 20}),
			Actions: []flowtable.Action{
				{Type: flowtable.ActSetSubTag, Tag: uint16(i % 63)},
				{Type: flowtable.ActGotoTable, Table: 1},
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
	routing := flowtable.NewTable()
	for i := 0; i < 40; i++ {
		if err := routing.Install(flowtable.Rule{
			Name: "route", Priority: 5,
			Match:   flowtable.Match{}.WithDst(flowtable.Prefix{Addr: uint32(172<<24 | 16<<16 | i<<8), Len: 24}),
			Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: i%4 + 1}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	var merged int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := flowtable.CrossProduct(appleTable, routing)
		if err != nil {
			b.Fatalf("cross product: %v", err)
		}
		merged = out.Size()
	}
	b.ReportMetric(float64(merged), "merged-rules")
	b.ReportMetric(float64(appleTable.Size()+routing.Size()), "pipelined-rules")
}

// BenchmarkAblation_Reconfigure contrasts the two fast-failover
// provisioning paths of §VIII: reconfiguring an idle ClickOS VM (30 ms)
// versus a full orchestrated boot (≈4.2 s), measured on the virtual clock.
func BenchmarkAblation_Reconfigure(b *testing.B) {
	b.Run("reconfigure", func(b *testing.B) {
		var ready time.Duration
		for i := 0; i < b.N; i++ {
			ready = provisionOnce(b, true)
		}
		b.ReportMetric(ready.Seconds()*1000, "ready-ms")
	})
	b.Run("boot-new", func(b *testing.B) {
		var ready time.Duration
		for i := 0; i < b.N; i++ {
			ready = provisionOnce(b, false)
		}
		b.ReportMetric(ready.Seconds()*1000, "ready-ms")
	})
}

// provisionOnce runs one provisioning cycle on a fresh host and returns
// the virtual time at which the instance was usable.
func provisionOnce(b *testing.B, reconfigure bool) time.Duration {
	b.Helper()
	clock := sim.New()
	orch, err := orchestrator.New(clock, orchestrator.DefaultLatencies(), 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := host.New("bench-host", 0, host.DefaultResources())
	if err != nil {
		b.Fatal(err)
	}
	if err := orch.AddHost(h); err != nil {
		b.Fatal(err)
	}
	if reconfigure {
		// Seed an idle ClickOS NAT to repurpose.
		if _, _, err := orch.PlaceNow(policy.NAT, 0); err != nil {
			b.Fatal(err)
		}
	}
	var ready time.Duration
	onReady := func(_ *vnf.Instance, _ *host.Host) { ready = clock.Now() }
	if reconfigure {
		if _, err := orch.ReconfigureIdle(policy.Firewall, 0, onReady, nil); err != nil {
			b.Fatal(err)
		}
	} else {
		if _, err := orch.Launch(policy.Firewall, 0, onReady, nil); err != nil {
			b.Fatal(err)
		}
	}
	clock.Run(0)
	return ready
}

// deployBench builds a deployed framework over g with uniform demand.
func deployBench(b *testing.B, g *apple.Topology) *apple.Framework {
	b.Helper()
	fw, err := apple.New(apple.Config{Topology: g, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := apple.NewTrafficMatrix(g.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		for j := 0; j < g.NumNodes(); j++ {
			if i != j {
				if err := tm.Set(i, j, 40); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	gen, err := apple.NewChainGenerator(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	classes, err := apple.BuildClasses(g, tm, gen, fw.Avail(), 1, 30)
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.Deploy(classes); err != nil {
		b.Fatal(err)
	}
	return fw
}

// BenchmarkAblation_Greedy compares the LP engine against the greedy
// heuristic: solve time and placement quality (instance count).
func BenchmarkAblation_Greedy(b *testing.B) {
	sc := geant(b)
	prob, err := sc.MeanProblem()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lp", func(b *testing.B) {
		engine := core.NewEngine(core.EngineOptions{})
		var obj int
		for i := 0; i < b.N; i++ {
			pl, err := engine.Solve(prob)
			if err != nil {
				b.Fatal(err)
			}
			obj = pl.Objective
		}
		b.ReportMetric(float64(obj), "instances")
	})
	b.Run("greedy", func(b *testing.B) {
		var obj int
		for i := 0; i < b.N; i++ {
			pl, err := core.SolveGreedy(prob)
			if err != nil {
				b.Fatal(err)
			}
			obj = pl.Objective
		}
		b.ReportMetric(float64(obj), "instances")
	})
	b.Run("ingress", func(b *testing.B) {
		var obj int
		for i := 0; i < b.N; i++ {
			pl, err := core.SolveIngress(prob)
			if err != nil {
				b.Fatal(err)
			}
			obj = pl.Objective
		}
		b.ReportMetric(float64(obj), "instances")
	})
}

// BenchmarkEnforcementProbe measures the end-to-end data-plane walk: one
// packet through classification, tagging, host steering, and delivery on
// Internet2.
func BenchmarkEnforcementProbe(b *testing.B) {
	g := topology.Internet2()
	fw := deployBench(b, g)
	classes := fw.Problem().Classes
	hdr, err := fw.FlowHeader(classes[0].ID, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := fw.Forward(hdr, classes[0].Path[0])
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Delivered {
			b.Fatal("probe not delivered")
		}
	}
}
