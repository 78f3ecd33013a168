package controller

import (
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// lineTopo builds an n-switch line.
func lineTopo(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph("line")
	var prev topology.NodeID
	for i := 0; i < n; i++ {
		id := g.AddNode("sw", topology.KindBackbone)
		if i > 0 {
			if err := g.AddLink(prev, id, 10_000, 1); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g
}

func linePath(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

// setup builds a controller over a 4-switch line with the given classes,
// solves placement with the LP engine, and installs it.
func setup(t *testing.T, classes []core.Class) (*Controller, *core.Problem, *core.Placement, *sim.Simulation) {
	t.Helper()
	g := lineTopo(t, 4)
	clock := sim.New()
	c, err := New(Config{Topology: g, Clock: clock, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	prob := &core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatalf("InstallPlacement: %v", err)
	}
	return c, prob, pl, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := New(Config{Topology: lineTopo(t, 2)}); err == nil {
		t.Error("nil clock should fail")
	}
	if _, err := New(Config{
		Topology:     lineTopo(t, 2),
		Clock:        sim.New(),
		HostSwitches: []topology.NodeID{99},
	}); err == nil {
		t.Error("unknown host switch should fail")
	}
}

// TestInstallRefusedAtSwitchWithoutHost: a placement whose Dist processes
// a class at a switch with no APPLE host is refused, and leaves the
// controller as it was. Such a switch has no host tag, so no rule may
// lead there. Whether the placement also counts instances at that switch
// (refused when provisioning finds no host) or at a hosting switch only
// (refused when no instance at the switch can serve the class), nothing
// of the install stands.
func TestInstallRefusedAtSwitchWithoutHost(t *testing.T) {
	g := lineTopo(t, 4)
	cl := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100}
	dist := [][]float64{{0}, {1}, {0}, {0}}
	for _, tc := range []struct {
		at   topology.NodeID
		want string
	}{
		{1, "no host at switch 1 fits"},
		{0, "no running firewall instance at switch 1"},
	} {
		c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7, HostSwitches: []topology.NodeID{0, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		before := c.Snapshot().String()
		pl := &core.Placement{
			Counts: map[topology.NodeID]map[policy.NF]int{tc.at: {policy.Firewall: 1}},
			Dist:   map[core.ClassID][][]float64{cl.ID: dist},
		}
		err = c.InstallPlacement(&core.Problem{Topo: g, Classes: []core.Class{cl}, Avail: c.Avail()}, pl)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("instances at switch %d: InstallPlacement = %v, want a refusal with %q", tc.at, err, tc.want)
		}
		if got := c.Snapshot().String(); got != before {
			t.Errorf("instances at switch %d: the refused install changed the controller: %s", tc.at, firstDiff(before, got))
		}
	}
}

func TestClassPrefixAndDstAddr(t *testing.T) {
	p, err := ClassPrefix(3)
	if err != nil || p.Len != 20 {
		t.Fatalf("ClassPrefix = %v, %v", p, err)
	}
	q, err := ClassPrefix(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Contains(q.Addr) {
		t.Fatal("class prefixes must be disjoint")
	}
	if _, err := ClassPrefix(-1); err == nil {
		t.Fatal("negative ID should fail")
	}
	// IDs ≥4096 fall into the /24 extension plane (16.0.0.0/4), disjoint
	// from the legacy /20 plane and from each other.
	w, err := ClassPrefix(5000)
	if err != nil || w.Len != 24 {
		t.Fatalf("wide-plan ClassPrefix = %v, %v", w, err)
	}
	if p.Contains(w.Addr) || w.Contains(p.Addr) {
		t.Fatal("wide-plan prefix overlaps the legacy plane")
	}
	w2, err := ClassPrefix(5001)
	if err != nil {
		t.Fatal(err)
	}
	if w.Contains(w2.Addr) {
		t.Fatal("wide-plan prefixes must be disjoint")
	}
	if _, err := ClassPrefix(MaxClassID + 1); err == nil {
		t.Fatal("ID beyond the plan should fail")
	}
	a, err := DstAddr(7)
	if err != nil || a == 0 {
		t.Fatalf("DstAddr = %v, %v", a, err)
	}
	if _, err := DstAddr(5000); err == nil {
		t.Fatal("huge switch should fail")
	}
}

// TestEndToEndEnforcement is the headline integration test: for several
// classes with different chains, every probe packet traverses exactly its
// policy chain in order, and is delivered with the Fin tag — policy
// enforcement without changing the forwarding path (the path is the
// class's own routing path by construction).
func TestEndToEndEnforcement(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS, policy.Proxy}, RateMbps: 400},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.NAT, policy.Firewall}, RateMbps: 700},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.IDS}, RateMbps: 1100},
	}
	c, _, _, _ := setup(t, classes)
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement: %v", err)
	}
}

// TestInterferenceFreedom verifies the second design property: the
// switch-level path a packet takes equals the class's routing path —
// APPLE never reroutes, it only detours through hosts hanging off
// path switches.
func TestInterferenceFreedom(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 500},
	}
	c, _, _, _ := setup(t, classes)
	hdr, err := c.FlowHeader(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Forward(hdr, 0)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if !tr.Delivered {
		t.Fatal("not delivered")
	}
	// Deduplicate consecutive repeats (host bounces revisit a switch).
	var dedup []topology.NodeID
	for _, v := range tr.Switches {
		if len(dedup) == 0 || dedup[len(dedup)-1] != v {
			dedup = append(dedup, v)
		}
	}
	want := linePath(4)
	if len(dedup) != len(want) {
		t.Fatalf("switch path %v, want %v", dedup, want)
	}
	for i := range want {
		if dedup[i] != want[i] {
			t.Fatalf("switch path %v deviates from routing path %v", dedup, want)
		}
	}
}

func TestUnclassifiedTrafficPassesBy(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	// A flow outside every class prefix, heading to the same destination:
	// it must ride the routing rules untouched, visiting no instance.
	dst, err := DstAddr(3)
	if err != nil {
		t.Fatal(err)
	}
	hdr := headerFor(t, "99.0.0.1", dst)
	tr, err := c.Forward(hdr, 0)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if !tr.Delivered || len(tr.Instances) != 0 {
		t.Fatalf("foreign traffic: delivered=%v instances=%v", tr.Delivered, tr.Instances)
	}
	if tr.FinalHostTag != flowtable.HostTagEmpty {
		t.Fatal("foreign traffic must stay untagged")
	}
}

func headerFor(t *testing.T, src string, dst uint32) headerspace.Header {
	t.Helper()
	srcIP, err := headerspace.ParseIPv4(src)
	if err != nil {
		t.Fatal(err)
	}
	return headerspace.Header{SrcIP: srcIP, DstIP: dst}
}

func TestLoadsAndLossRate(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 450},
	}
	c, _, _, _ := setup(t, classes)
	// At the planned rate, no loss.
	loss, err := c.LossRate(map[core.ClassID]float64{0: 450})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Fatalf("loss at planned rate = %v, want 0", loss)
	}
	// At 4× the planned rate, a single 900 Mbps firewall drops half.
	loss, err = c.LossRate(map[core.ClassID]float64{0: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0.45 || loss > 0.55 {
		t.Fatalf("loss at 2× capacity = %v, want ≈0.5", loss)
	}
	loads := c.Loads(map[core.ClassID]float64{0: 450})
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total != 450 {
		t.Fatalf("total load = %v, want 450", total)
	}
}

func TestRuleUpdateAccounting(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	if c.RuleUpdates() == 0 {
		t.Fatal("rule updates not counted")
	}
}

func TestAssignmentAccessors(t *testing.T) {
	classes := []core.Class{
		{ID: 5, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	got := c.Classes()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("Classes = %v", got)
	}
	a, err := c.Assignment(5)
	if err != nil || a.NumSubclasses() == 0 {
		t.Fatalf("Assignment = %+v, %v", a, err)
	}
	if _, err := c.Assignment(99); err == nil {
		t.Fatal("missing class should fail")
	}
	if _, err := c.Switch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Switch(99); err == nil {
		t.Fatal("unknown switch should fail")
	}
	if _, err := c.Host(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Host(99); err == nil {
		t.Fatal("unknown host should fail")
	}
}

// TestNoShadowedRules: the Rule Generator never produces dead TCAM
// entries, across a mixed deployment with NAT chains and online adds.
func TestNoShadowedRules(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 700},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.NAT, policy.Firewall}, RateMbps: 400},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.Proxy}, RateMbps: 1100},
	}
	c, _, _, _ := setup(t, classes)
	if err := c.AddClass(core.Class{
		ID: 3, Path: linePath(4), Chain: policy.Chain{policy.IDS, policy.NAT}, RateMbps: 250,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTables(); err != nil {
		t.Fatalf("CheckTables: %v", err)
	}
}

// TestACLCoexistsWithAPPLE: an access-control drop in the "other
// applications" table blocks the covered class while every other class
// keeps full policy enforcement — the Fig 1 separation of concerns.
func TestACLCoexistsWithAPPLE(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.IDS}, RateMbps: 200},
	}
	c, _, _, _ := setup(t, classes)
	blocked, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallACL("block-class-0", blocked.Prefix()); err != nil {
		t.Fatalf("InstallACL: %v", err)
	}
	// Class 0's packets are dropped by the ACL...
	hdr, err := c.FlowHeader(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Forward(hdr, 0); err == nil {
		t.Fatal("ACL-covered traffic should be dropped")
	}
	// ...while class 1 remains fully enforced.
	hdr1, err := c.FlowHeader(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Forward(hdr1, 0)
	if err != nil || !tr.Delivered || len(tr.Instances) != 1 {
		t.Fatalf("uncovered class broken by ACL: %+v, %v", tr, err)
	}
}
