// Benchmark harness: ablations of the design choices called out in
// DESIGN.md §3 (EXPERIMENTS.md's Ablations table is read from
// `go test -bench 'Ablation' -benchtime 1x .`), the end-to-end
// enforcement probe, and the cold path's allocation profile
// (`make profile-cold`). The paper's tables and figures are regenerated by
// cmd/applereport, not by benchmarks.
package apple_test

import (
	"testing"
	"time"

	apple "github.com/apple-nfv/apple"
	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
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

// BenchmarkColdPath runs one cold policy-to-installed pass on each of the
// four paper topologies, the layers paper_lifecycle drives: the 24-snapshot
// mean problem, its policy hierarchy, a classifier over the class prefixes,
// the engine's solve and a fresh controller's InstallPlacement. Its
// -memprofile (`make profile-cold`) attributes the cold path's bytes to
// those layers.
func BenchmarkColdPath(b *testing.B) {
	scs, err := experiments.All(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			coldPath(b, sc)
		}
	}
}

// coldPath is one topology's pass of BenchmarkColdPath.
func coldPath(b *testing.B, sc *experiments.Scenario) {
	prob, err := sc.MeanProblem()
	if err != nil {
		b.Fatal(err)
	}
	h, tenants, err := experiments.ScenarioHierarchy(prob, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.ApplyHierarchy(prob, h, tenants); err != nil {
		b.Fatal(err)
	}
	sp := headerspace.NewSpace()
	preds := make([]headerspace.Predicate, len(prob.Classes))
	for i, cl := range prob.Classes {
		px, err := controller.ClassPrefix(cl.ID)
		if err != nil {
			b.Fatal(err)
		}
		if preds[i], err = sp.Prefix(headerspace.FieldSrcIP, px.Addr, px.Len); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := headerspace.NewClassifier(sp, preds); err != nil {
		b.Fatal(err)
	}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		b.Fatalf("%s: solve: %v", sc.Name, err)
	}
	core.AdoptChains(prob, pl)
	hosts := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		hosts = append(hosts, v)
	}
	ctrl, err := controller.New(controller.Config{
		Topology:              sc.Graph,
		Clock:                 sim.New(),
		HostSwitches:          hosts,
		HostResourcesBySwitch: sc.Avail,
		Seed:                  sc.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := ctrl.InstallPlacement(prob, pl); err != nil {
		b.Fatalf("%s: install: %v", sc.Name, err)
	}
}
