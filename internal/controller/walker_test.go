package controller_test

// A sampling walker: many random sources per class, each walked from the
// class's ingress through Controller.Forward and checked against the
// class's chain. CheckClassEnforcement probes 8 fixed sources per class;
// the walker draws as many random ones as a test can afford, which is what
// finds steering that is wrong for most of a class's traffic but right at
// the probe points.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// walkFault is what is first wrong with one sampled walk, in the order the
// walker checks: the walk errs, the packet is not delivered, it visits the
// wrong number of instances, the instance at chain position Pos runs Got
// where the chain says Want, or it arrives without host tag Fin.
type walkFault struct {
	Kind      string
	Pos       int
	Got, Want policy.NF
}

// classWalks is the walker's verdict on one class: its chain and how many
// walks failed, by fault.
type classWalks struct {
	Chain  policy.Chain
	Faults map[walkFault]int
}

// sampleWalks walks n random sources of every installed class from its
// ingress and returns the classes with at least one failed walk.
func sampleWalks(t *testing.T, c *controller.Controller, n int, rng *rand.Rand) map[core.ClassID]classWalks {
	t.Helper()
	out := make(map[core.ClassID]classWalks)
	for _, id := range c.Classes() {
		a, err := c.Assignment(id)
		if err != nil {
			t.Fatal(err)
		}
		w := classWalks{Chain: a.Class.Chain, Faults: make(map[walkFault]int)}
		for i := 0; i < n; i++ {
			hdr, err := c.FlowHeader(id, rng.Uint32())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := c.Forward(hdr, a.Class.Path[0])
			if f, bad := checkSample(t, c, tr, err, a.Class.Chain); bad {
				w.Faults[f]++
			}
		}
		if len(w.Faults) > 0 {
			out[id] = w
		}
	}
	return out
}

// checkSample judges one walk against the chain.
func checkSample(t *testing.T, c *controller.Controller, tr controller.Trace, err error, chain policy.Chain) (walkFault, bool) {
	t.Helper()
	switch {
	case err != nil:
		return walkFault{Kind: "forward"}, true
	case !tr.Delivered:
		return walkFault{Kind: "undelivered"}, true
	case len(tr.Instances) != len(chain):
		return walkFault{Kind: "length"}, true
	}
	for j, inst := range tr.Instances {
		nf, err := c.InstanceNF(inst)
		if err != nil {
			t.Fatal(err)
		}
		if nf != chain[j] {
			return walkFault{Kind: "nf", Pos: j, Got: nf, Want: chain[j]}, true
		}
	}
	if tr.FinalHostTag != flowtable.HostTagFin {
		return walkFault{Kind: "tag"}, true
	}
	return walkFault{}, false
}

// deployPaperLifecycle deploys one paper scenario the way one operation of
// cmd/applebench's paper_lifecycle workload does: the mean problem, its
// chains rebuilt as a hierarchy and compiled back, an LP solve whose chain
// orders the problem adopts, hosts at exactly the resources the problem
// plans with, the install, and one Observe at the snapshot with the most
// traffic.
func deployPaperLifecycle(t *testing.T, build func(experiments.Options) (*experiments.Scenario, error), seed int64) (*experiments.Scenario, *controller.Controller) {
	t.Helper()
	sc, err := build(experiments.Options{Seed: seed, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	h, tenants, err := experiments.ScenarioHierarchy(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ApplyHierarchy(prob, h, tenants); err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("%s: solve: %v", sc.Name, err)
	}
	core.AdoptChains(prob, pl)
	hosts := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		hosts = append(hosts, v)
	}
	slices.Sort(hosts)
	c, err := controller.New(controller.Config{
		Topology: sc.Graph, Clock: sim.New(), Seed: sc.Seed,
		HostSwitches: hosts, HostResourcesBySwitch: sc.Avail,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatalf("%s: install: %v", sc.Name, err)
	}
	d, err := controller.NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	peak := sc.Series[0]
	for _, tm := range sc.Series {
		if tm.Total() > peak.Total() {
			peak = tm
		}
	}
	if _, err := d.Observe(classRates(prob, peak)); err != nil {
		t.Fatalf("%s: observe: %v", sc.Name, err)
	}
	return sc, c
}

// classRates maps a traffic matrix onto the problem's classes by OD pair.
func classRates(prob *core.Problem, tm *traffic.Matrix) map[core.ClassID]float64 {
	out := make(map[core.ClassID]float64, len(prob.Classes))
	for _, cl := range prob.Classes {
		out[cl.ID] = tm.At(int(cl.Path[0]), int(cl.Path[len(cl.Path)-1]))
	}
	return out
}

// TestKnownGapFinding2 pins a known gap (ROADMAP item 1(a), finding 2 of
// cmd/applebench's README). Deployed as paper_lifecycle deploys it, on
// UNIV1 with scenario seed 2, class 85 (nat→firewall) is steered to its
// firewall first for every sampled source once the peak Observe has
// reshaped it: failover sub-class rules downstream of the NAT match the
// header as it was before the rewrite. Every other class of the four paper
// topologies at scenario seeds 1 and 2 walks clean. When 1(a) lands this
// test fails: flip it into an assertion that no class fails.
func TestKnownGapFinding2(t *testing.T) {
	n := 256
	if controller.RaceDetector {
		n = 16
	}
	builds := []func(experiments.Options) (*experiments.Scenario, error){
		experiments.Internet2, experiments.GEANT, experiments.UNIV1, experiments.AS3679,
	}
	got := make(map[string]classWalks)
	for seed := int64(1); seed <= 2; seed++ {
		for _, build := range builds {
			sc, c := deployPaperLifecycle(t, build, seed)
			bad := sampleWalks(t, c, n, rand.New(rand.NewSource(seed)))
			t.Logf("%s seed %d: %d classes × %d sources, %d failing", sc.Name, seed, len(c.Classes()), n, len(bad))
			for id, w := range bad {
				key := fmt.Sprintf("%s seed %d class %d", sc.Name, seed, id)
				t.Logf("%s %v: failed walks of %d, by fault: %v", key, w.Chain, n, w.Faults)
				got[key] = w
			}
		}
	}
	const want = "UNIV1 seed 2 class 85"
	w, ok := got[want]
	if !ok {
		t.Fatalf("known gap closed? %s walks clean (failing: %d classes)", want, len(got))
	}
	wrongFirst := walkFault{Kind: "nf", Pos: 0, Got: policy.Firewall, Want: policy.NAT}
	if !slices.Equal(w.Chain, policy.Chain{policy.NAT, policy.Firewall}) || w.Faults[wrongFirst] != n || len(w.Faults) != 1 {
		t.Errorf("%s %v: faults %v, want all %d walks to visit firewall where the chain says nat", want, w.Chain, w.Faults, n)
	}
	if len(got) != 1 {
		t.Errorf("%d classes fail, want only %s", len(got), want)
	}
}
