// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VIII prototype, §IX simulation), plus ablations of the
// design choices called out in DESIGN.md §3. Each benchmark reports the
// figure's headline metric via b.ReportMetric so `go test -bench` output
// doubles as the experiment record (EXPERIMENTS.md is generated from the
// same drivers via the cmd/ tools).
package apple_test

import (
	"testing"
	"time"

	apple "github.com/apple-nfv/apple"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/dataplane"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// benchOpts keeps benchmark scenarios at the paper's scale but with a
// shortened series (the engines see the same per-snapshot problem sizes).
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Snapshots: 96}
}

// scenario builds a named scenario, failing the benchmark on error.
func scenario(b *testing.B, build func(experiments.Options) (*experiments.Scenario, error)) *experiments.Scenario {
	b.Helper()
	sc, err := build(benchOpts())
	if err != nil {
		b.Fatalf("scenario: %v", err)
	}
	return sc
}

// ---------------------------------------------------------------------------
// Table V: Optimization Engine computation time per topology.

func benchTableV(b *testing.B, build func(experiments.Options) (*experiments.Scenario, error)) {
	b.Helper()
	sc := scenario(b, build)
	prob, err := sc.MeanProblem()
	if err != nil {
		b.Fatalf("problem: %v", err)
	}
	engine := core.NewEngine(core.EngineOptions{})
	b.ResetTimer()
	var objective int
	for i := 0; i < b.N; i++ {
		pl, err := engine.Solve(prob)
		if err != nil {
			b.Fatalf("solve: %v", err)
		}
		objective = pl.Objective
	}
	b.ReportMetric(float64(len(prob.Classes)), "classes")
	b.ReportMetric(float64(objective), "instances")
}

func BenchmarkTableV_Internet2(b *testing.B) { benchTableV(b, experiments.Internet2) }
func BenchmarkTableV_GEANT(b *testing.B)     { benchTableV(b, experiments.GEANT) }
func BenchmarkTableV_UNIV1(b *testing.B)     { benchTableV(b, experiments.UNIV1) }
func BenchmarkTableV_AS3679(b *testing.B)    { benchTableV(b, experiments.AS3679) }

// ---------------------------------------------------------------------------
// Fig 6: passive-monitor overload curve.

func BenchmarkFig6_OverloadCurve(b *testing.B) {
	rates := []float64{2000, 6000, 10000, 12000, 16000, 24000}
	var knee float64
	for i := 0; i < b.N; i++ {
		points, err := dataplane.OverloadCurve(rates, time.Second)
		if err != nil {
			b.Fatalf("curve: %v", err)
		}
		for _, p := range points {
			if p.LossRate > 0 {
				knee = p.RatePPS
				break
			}
		}
	}
	b.ReportMetric(knee, "knee-pps")
}

// ---------------------------------------------------------------------------
// Fig 7: VM setup time via failover throughput gap.

func BenchmarkFig7_SetupTime(b *testing.B) {
	var gap time.Duration
	for i := 0; i < b.N; i++ {
		res, err := dataplane.SetupTimeExperiment(5000, 2*time.Second, 10*time.Second, int64(i))
		if err != nil {
			b.Fatalf("setup: %v", err)
		}
		gap = res.Gap
	}
	b.ReportMetric(gap.Seconds(), "gap-s")
}

// ---------------------------------------------------------------------------
// Fig 8: transfer-time distributions per failover strategy.

func BenchmarkFig8_TransferCDF(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		base, err := dataplane.TransferTimes(dataplane.ScenarioNoFailover, dataplane.TransferConfig{Seed: int64(i)})
		if err != nil {
			b.Fatalf("transfer: %v", err)
		}
		rec, err := dataplane.TransferTimes(dataplane.ScenarioReconfigure, dataplane.TransferConfig{Seed: int64(i)})
		if err != nil {
			b.Fatalf("transfer: %v", err)
		}
		bs, err := metrics.Summarize(base)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := metrics.Summarize(rec)
		if err != nil {
			b.Fatal(err)
		}
		spread = rs.Mean / bs.Mean
	}
	// ≈1.0: reconfiguration adds no overhead (the Fig 8 takeaway).
	b.ReportMetric(spread, "reconfig/base")
}

// ---------------------------------------------------------------------------
// Fig 9: overload detection timeline.

func BenchmarkFig9_Detection(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res, err := dataplane.DetectionExperiment(1000, 10000, 3*time.Second, 8*time.Second, 12*time.Second)
		if err != nil {
			b.Fatalf("detection: %v", err)
		}
		loss = res.TotalLoss
	}
	b.ReportMetric(loss*100, "loss-%")
}

// ---------------------------------------------------------------------------
// Fig 10: TCAM reduction from the tagging scheme.

func benchFig10(b *testing.B, build func(experiments.Options) (*experiments.Scenario, error)) {
	b.Helper()
	sc := scenario(b, build)
	var median float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Fig10(sc, 4)
		if err != nil {
			b.Fatalf("fig10: %v", err)
		}
		median = row.Box.Median
	}
	b.ReportMetric(median, "reduction-x")
}

func BenchmarkFig10_TCAM_Internet2(b *testing.B) { benchFig10(b, experiments.Internet2) }
func BenchmarkFig10_TCAM_GEANT(b *testing.B)     { benchFig10(b, experiments.GEANT) }
func BenchmarkFig10_TCAM_UNIV1(b *testing.B)     { benchFig10(b, experiments.UNIV1) }

// ---------------------------------------------------------------------------
// Fig 11: hardware usage, APPLE vs the ingress strawman.

func benchFig11(b *testing.B, build func(experiments.Options) (*experiments.Scenario, error)) {
	b.Helper()
	sc := scenario(b, build)
	var reduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Fig11(sc, 4)
		if err != nil {
			b.Fatalf("fig11: %v", err)
		}
		reduction = row.Reduction()
	}
	b.ReportMetric(reduction, "ingress/apple-x")
}

func BenchmarkFig11_Cores_Internet2(b *testing.B) { benchFig11(b, experiments.Internet2) }
func BenchmarkFig11_Cores_GEANT(b *testing.B)     { benchFig11(b, experiments.GEANT) }
func BenchmarkFig11_Cores_UNIV1(b *testing.B)     { benchFig11(b, experiments.UNIV1) }

// ---------------------------------------------------------------------------
// Fig 12: loss under traffic dynamics with vs without fast failover.

func benchFig12(b *testing.B, build func(experiments.Options) (*experiments.Scenario, error)) {
	b.Helper()
	sc := scenario(b, build)
	const snapshots = 48
	var off, on, extra, refusedOff, refusedOn float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resOff, err := experiments.Fig12(sc, snapshots, false)
		if err != nil {
			b.Fatalf("fig12 off: %v", err)
		}
		resOn, err := experiments.Fig12(sc, snapshots, true)
		if err != nil {
			b.Fatalf("fig12 on: %v", err)
		}
		off, on = resOff.MeanLoss*100, resOn.MeanLoss*100
		extra = resOn.MeanExtraCores
		refusedOff, refusedOn = float64(resOff.Refused()), float64(resOn.Refused())
	}
	b.ReportMetric(off, "loss-off-%")
	b.ReportMetric(on, "loss-on-%")
	b.ReportMetric(extra, "avg-extra-cores")
	b.ReportMetric(refusedOff, "refused-windows-off")
	b.ReportMetric(refusedOn, "refused-windows-on")
}

func BenchmarkFig12_FastFailover_Internet2(b *testing.B) { benchFig12(b, experiments.Internet2) }
func BenchmarkFig12_FastFailover_GEANT(b *testing.B)     { benchFig12(b, experiments.GEANT) }
func BenchmarkFig12_FastFailover_UNIV1(b *testing.B)     { benchFig12(b, experiments.UNIV1) }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §3).

// BenchmarkAblation_Aggregation shows why §IV-A aggregates flows into
// classes: solve time grows superlinearly with input size.
func BenchmarkAblation_Aggregation(b *testing.B) {
	sc := scenario(b, experiments.GEANT)
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
			Match: flowtable.Match{Src: flowtable.PrefixPtr(flowtable.Prefix{
				Addr: uint32(10<<24 | i<<12), Len: 20,
			})},
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
			Match: flowtable.Match{Dst: flowtable.PrefixPtr(flowtable.Prefix{
				Addr: uint32(172<<24 | 16<<16 | i<<8), Len: 24,
			})},
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
	if err := clock.Run(0); err != nil {
		b.Fatal(err)
	}
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
	sc := scenario(b, experiments.GEANT)
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
