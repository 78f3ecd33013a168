package controller

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// overloadedSetup builds one class at 450 Mbps through a firewall, with a
// pre-split distribution: the LP plans for 450, so the single firewall
// overloads when traffic surges past 900.
func overloadedSetup(t *testing.T) (*Controller, *DynamicHandler, *core.Problem) {
	t.Helper()
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 450},
	}
	c, prob, _, _ := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatalf("NewDynamicHandler: %v", err)
	}
	return c, d, prob
}

func TestNewDynamicHandlerNil(t *testing.T) {
	if _, err := NewDynamicHandler(nil); err == nil {
		t.Fatal("nil controller should fail")
	}
}

func TestNoTransitionsAtPlannedLoad(t *testing.T) {
	_, d, _ := overloadedSetup(t)
	n, err := d.Observe(map[core.ClassID]float64{0: 450})
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if n != 0 {
		t.Fatalf("transitions = %d, want 0 at planned load", n)
	}
}

// TestFastFailoverReducesLoss is the Fig 12 mechanism in miniature: a
// surge overloads the only firewall; fast failover spawns capacity and
// re-balances; once the new instance is up, loss drops versus the
// no-failover baseline.
func TestFastFailoverReducesLoss(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	clock := cClock(c)
	surge := map[core.ClassID]float64{0: 1600}

	// Baseline loss with no handler action: 1600 through one 900 FW.
	baseLoss, err := c.LossRate(surge)
	if err != nil {
		t.Fatal(err)
	}
	if baseLoss < 0.4 {
		t.Fatalf("baseline loss = %v, expected heavy overload", baseLoss)
	}
	// The handler sees the surge and spawns a new sub-class.
	n, err := d.Observe(surge)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if n != 1 {
		t.Fatalf("transitions = %d, want 1 overload", n)
	}
	// Let the spawned instance boot (ClickOS reconfigure is impossible —
	// no idle instance — so this is a full orchestrated boot ≤4.6 s).
	clock.Run(6 * time.Second)
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() < 2 {
		t.Fatalf("no new sub-class created: %d", a.NumSubclasses())
	}
	afterLoss, err := c.LossRate(surge)
	if err != nil {
		t.Fatal(err)
	}
	if afterLoss >= baseLoss {
		t.Fatalf("failover loss %v did not improve on baseline %v", afterLoss, baseLoss)
	}
	if d.PeakExtraCores() <= 0 {
		t.Fatal("extra cores not accounted")
	}
}

// TestRollbackRestoresBase: after the surge subsides (below the rollback
// threshold), weights return to base and spawned instances are cancelled.
func TestRollbackRestoresBase(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	clock := cClock(c)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	instancesDuring := len(c.Orchestrator().Instances())
	// Drop below the rollback threshold (0.44 × 900 ≈ 396).
	n, err := d.Observe(map[core.ClassID]float64{0: 100})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovery transition not detected")
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != a.NumBase() {
		t.Fatalf("spawned sub-classes not rolled back: %d vs %d", a.NumSubclasses(), a.NumBase())
	}
	if snap := a.snapshot(); !slices.Equal(snap.Weights, snap.Base) {
		t.Fatalf("weights not restored: %v vs %v", snap.Weights, snap.Base)
	}
	if after := len(c.Orchestrator().Instances()); after >= instancesDuring {
		t.Fatalf("spawned instance not cancelled: %d vs %d during failover", after, instancesDuring)
	}
	// Enforcement still holds after the full failover cycle.
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement broken after rollback: %v", err)
	}
}

// TestRebalanceToSiblingWithoutSpawn: when the class already has two
// sub-classes on separate instances and only one overloads, the handler
// shifts weight to the sibling instead of spawning.
func TestRebalanceToSiblingWithoutSpawn(t *testing.T) {
	// 1350 Mbps needs 2 firewalls; the LP splits into ≥2 sub-classes.
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 1350},
	}
	c, _, _, clock := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() < 2 {
		t.Skipf("placement produced %d sub-classes; rebalance test needs ≥2", a.NumSubclasses())
	}
	before := len(c.Orchestrator().Instances())
	// Mild surge: total fits in 2×900 but the heavier sub-class tips its
	// instance over.
	if _, err := d.Observe(map[core.ClassID]float64{0: 1700}); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	loss, err := c.LossRate(map[core.ClassID]float64{0: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.05 {
		t.Fatalf("loss after rebalance = %v, want ≈0", loss)
	}
	_ = before
}

// cClock digs the simulation clock back out of the controller for tests.
func cClock(c *Controller) simClock { return c.clock }

// findInstance locates a pooled instance by ID.
func (c *Controller) findInstance(id vnf.ID) (*vnf.Instance, error) {
	for _, inst := range c.pooledByID() {
		if inst.ID() == id {
			return inst, nil
		}
	}
	return nil, fmt.Errorf("controller: unknown instance %s", id)
}

type simClock = clockIface

type clockIface interface {
	Run(horizon time.Duration)
}

// TestRepinSharesCapacityAcrossClasses: when a class's instance overloads
// and another instance of the same NF at an order-compatible hop has
// headroom, the handler re-pins weight onto it with rule changes alone —
// no new VM.
func TestRepinSharesCapacityAcrossClasses(t *testing.T) {
	// Two classes, both needing a firewall: class 0 is planned at 800
	// (nearly fills its instance), class 1 at 100 (its instance has
	// plenty of headroom). Surging class 0 to 1200 must shift the excess
	// onto class 1's instance.
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 800},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 900},
	}
	c, _, _, _ := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	before := len(c.Orchestrator().Instances())
	rates := map[core.ClassID]float64{0: 1200, 1: 100}
	if _, err := d.Observe(rates); err != nil {
		t.Fatal(err)
	}
	// Re-pinning happens instantly (no boot): loss should already be
	// far below the naive 400/1200.
	loss, err := c.LossRate(rates)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.10 {
		t.Fatalf("loss after repin = %v; most excess should ride the idle instance", loss)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() < 2 {
		t.Fatalf("repin should have created a sub-class: %d", a.NumSubclasses())
	}
	// Rollback restores the single sub-class when load subsides.
	if _, err := d.Observe(map[core.ClassID]float64{0: 300, 1: 100}); err != nil {
		t.Fatal(err)
	}
	// The rollback commits a new assignment; the one read above is the
	// reshape it replaced.
	if a, err = c.Assignment(0); err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != a.NumBase() {
		t.Fatalf("repin sub-classes not rolled back: %d vs base %d", a.NumSubclasses(), a.NumBase())
	}
	_ = before
}

// TestSustainedOverloadExtendsRepinnedSubclass: a sustained overload
// re-balances the same source sub-class twice. The first pass re-pins
// weight onto the other class's instance as a new sub-class; the second
// adds weight to that sub-class, through the sibling spread, and creates
// no new sub-class or tag — which is why repin never has an existing
// sub-class to extend.
func TestSustainedOverloadExtendsRepinnedSubclass(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 800},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 900},
	}
	c, _, _, _ := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600, 1: 100}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumSubclasses() != 2 || first.Weight(1) <= 0 {
		t.Fatalf("first pass: %d sub-classes, re-pinned weight %v; want one re-pinned sub-class",
			first.NumSubclasses(), first.Weight(1))
	}
	overloaded, repinned := first.Instances(0)[0], first.Instances(1)[0]
	// Class 0 surges further while class 1 goes quiet: its instance is
	// still overloaded (was && now) and past capacity, and the re-pinned
	// sub-class's instance has headroom again.
	rates := map[core.ClassID]float64{0: 1800, 1: 0}
	if loads := c.Loads(rates); loads[overloaded] <= 900 || loads[repinned] >= 900 {
		t.Fatalf("second-pass loads %v: want %s past capacity and %s below it", loads, overloaded, repinned)
	}
	n, err := d.Observe(rates)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("second pass handled %d transitions, want the one sustained overload", n)
	}
	second, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if second.NumSubclasses() != 2 {
		t.Fatalf("second pass left %d sub-classes, want the same 2", second.NumSubclasses())
	}
	for s := range 2 {
		if second.Tag(s) != first.Tag(s) || !slices.Equal(second.Instances(s), first.Instances(s)) {
			t.Fatalf("sub-class %d changed: tag %d on %v, was tag %d on %v",
				s, second.Tag(s), second.Instances(s), first.Tag(s), first.Instances(s))
		}
	}
	if second.Weight(1) <= first.Weight(1) {
		t.Fatalf("re-pinned sub-class weight %v -> %v, want it to grow", first.Weight(1), second.Weight(1))
	}
	assertInvariants(t, d)
}

func TestExtraCoresAccessor(t *testing.T) {
	_, d, _ := overloadedSetup(t)
	if d.ExtraCores() != 0 {
		t.Fatal("fresh handler should report zero extra cores")
	}
}

// TestRemovedInFailoverForgetsState: a class removed while in failover
// takes its failover state with it. The next Observe cancels the spawned
// instance, stops charging its cores and forgets the class's state, so
// the same ID re-added later starts clean instead of inheriting a rollback
// for a failover it never had (the removed-in-failover teardown fix in
// CHANGES.md).
func TestRemovedInFailoverForgetsState(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	cClock(c).Run(6 * time.Second)
	if len(d.states) != 1 || d.ExtraCores() == 0 {
		t.Fatalf("surge left %d failover states and %d extra cores; want class 0 in failover on a spawned instance",
			len(d.states), d.ExtraCores())
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	cl := a.Class
	txn := c.Begin()
	txn.StageRemove(0)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Observe(map[core.ClassID]float64{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.states) != 0 {
		t.Fatalf("removed class still has %d failover states", len(d.states))
	}
	if d.ExtraCores() != 0 {
		t.Fatalf("removed class's spawned instance still charges %d cores", d.ExtraCores())
	}

	if err := c.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	rollbacks := d.Counters().Get(CtrRollbacks)
	n, err := d.Observe(map[core.ClassID]float64{0: 450})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || d.Counters().Get(CtrRollbacks) != rollbacks {
		t.Fatalf("re-added class at planned load: %d transitions, rollbacks %d -> %d; want none",
			n, rollbacks, d.Counters().Get(CtrRollbacks))
	}
	assertInvariants(t, d)
}

// TestReapedLaunchLeavesTheLedger: a re-optimization that cuts a class in
// failover over and reaps the launch it no longer references cancels that
// launch behind the handler's back. A surge on an IDS class launches a
// full VM beside the planned one at switch 0; ReOptimize{Reap} moves the
// class to switch 2 and reaps both. The next Observe, still in the surge,
// overloads the new IDS and launches again, and rolls nothing back: the
// reaped launch's record must be gone, ExtraCores must count only the
// cores of launches the orchestrator still runs, and the invariants hold.
func TestReapedLaunchLeavesTheLedger(t *testing.T) {
	classes := []core.Class{{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.IDS}, RateMbps: 300}}
	c, prob, _, clock := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	surge := map[core.ClassID]float64{0: 1000}
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	if d.Counters().Get(CtrActivations) != 1 || len(d.states[0]) != 1 {
		t.Fatalf("surge did not activate one launch: %s, launches %v", d.Counters(), d.states[0])
	}
	reaped := d.states[0][0]
	dist := zeroDist(len(classes[0].Path), 1)
	dist[2][0] = 1
	pl := &core.Placement{
		Counts: map[topology.NodeID]map[policy.NF]int{2: {policy.IDS: 1}},
		Dist:   map[core.ClassID][][]float64{0: dist},
	}
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Reap: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updated != 1 || rep.Reaped != 2 || c.orch.Known(reaped) {
		t.Fatalf("ReOptimize updated %d classes and reaped %d instances, launch %s known %v; want the class cut over and both IDS reaped",
			rep.Updated, rep.Reaped, reaped, c.orch.Known(reaped))
	}
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	if d.Counters().Get(CtrRollbacks) != 0 {
		t.Fatalf("the Observe rolled the class back: %s", d.Counters())
	}
	if _, ok := d.launches[reaped]; ok {
		t.Errorf("reaped launch %s still has a ledger record", reaped)
	}
	live := 0
	for id, l := range d.launches {
		if c.orch.Known(id) {
			live += l.cores
		}
	}
	if d.ExtraCores() != live {
		t.Errorf("ExtraCores = %d, but the launches the orchestrator runs hold %d cores", d.ExtraCores(), live)
	}
	assertInvariants(t, d)
}

// TestReshapeKeepsLedgerBits: a handler reshape keeps its class's base,
// so the store moves no charge when it swaps one in (sameBase), and an
// overload and its rollback leave every ledger entry bit-identical.
// Charging the reshape and taking the live assignment back would not:
// class 0 charges 0.7 and class 2 0.1 to one firewall, whose entry
// 0.7 + 0.1 comes back from (L + 0.7) − 0.7 as 0.8.
func TestReshapeKeepsLedgerBits(t *testing.T) {
	g := lineTopo(t, 4)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 0.7},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 0.1},
		{ID: 2, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 0.1},
	}
	// Classes 0 and 2 share switch 0's firewall; class 1's, at switch 1,
	// is where the overload re-pins their excess.
	pl := &core.Placement{
		Counts: map[topology.NodeID]map[policy.NF]int{0: {policy.Firewall: 1}, 1: {policy.Firewall: 1}},
		Dist:   map[core.ClassID][][]float64{},
	}
	for id, hop := range []int{0, 1, 0} {
		dist := zeroDist(4, 1)
		dist[hop][0] = 1
		pl.Dist[core.ClassID(id)] = dist
	}
	if err := c.InstallPlacement(&core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}, pl); err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	before := c.assign.portions()
	shared, _ := c.assign.get(0)
	if l := before[shared.Instances(0)[0]]; l+0.7-0.7 == l {
		t.Fatalf("fixture: the shared firewall's entry %v survives (L + 0.7) − 0.7", l)
	}
	// The surge overloads the shared firewall; class 2, reshaped with
	// class 0, may roll back in the same call.
	if n, err := d.Observe(map[core.ClassID]float64{0: 1000, 1: 10, 2: 10}); err != nil || n == 0 {
		t.Fatalf("overload: %d transitions, %v", n, err)
	}
	if a, _ := c.assign.get(0); a.NumSubclasses() <= a.NumBase() {
		t.Fatal("fixture: the overload did not reshape class 0")
	}
	assertLedger := func(when string) {
		t.Helper()
		if got := c.assign.portions(); !maps.Equal(got, before) {
			t.Fatalf("ledger after the %s is %v, want %v bit for bit", when, got, before)
		}
	}
	assertLedger("overload")
	if n, err := d.Observe(map[core.ClassID]float64{0: 1, 1: 1, 2: 1}); err != nil || n == 0 {
		t.Fatalf("rollback: %d transitions, %v", n, err)
	}
	if a, _ := c.assign.get(0); a.NumSubclasses() != a.NumBase() {
		t.Fatal("fixture: the rollback left class 0 reshaped")
	}
	assertLedger("rollback")
	assertInvariants(t, d)
}

// TestReshapedSubclassGetsHostMatch: a failover sub-class that moves to a
// switch no class processed at before needs that switch's host-match
// rule, or its packets pass the switch by and skip the NF. Switch 0's
// host fits one firewall, so the surge's spawn lands at switch 1, whose
// APPLE table holds only what New installed there. Every source of the
// class must then visit one firewall. When reshapes installed no
// host-match rule and New none either, the 2 048 of 4 096 sources
// classified onto the new sub-class reached none, and the enforcement
// probes failed ("probe 4 visited 0 instances").
func TestReshapedSubclassGetsHostMatch(t *testing.T) {
	g := lineTopo(t, 4)
	clock := sim.New()
	c, err := New(Config{Topology: g, Clock: clock, Seed: 7,
		HostResourcesBySwitch: map[topology.NodeID]policy.Resources{0: {Cores: 4, MemoryMB: 1024}}})
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 450}
	dist := zeroDist(4, 1)
	dist[0][0] = 1
	pl := &core.Placement{
		Counts: map[topology.NodeID]map[policy.NF]int{0: {policy.Firewall: 1}},
		Dist:   map[core.ClassID][][]float64{0: dist},
	}
	if err := c.InstallPlacement(&core.Problem{Topo: g, Classes: []core.Class{cl}, Avail: c.Avail()}, pl); err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	clock.Run(6 * time.Second)
	a, _ := c.assign.get(0)
	if a.NumSubclasses() != 2 || a.Subclass(1).Hops[0] != 1 {
		t.Fatalf("fixture: want the spawn's sub-class at hop 1, got %d sub-classes", a.NumSubclasses())
	}
	prefix := a.Prefix()
	unserved := 0
	for src := uint32(0); src < 1<<(32-prefix.Len); src++ {
		hdr, err := c.FlowHeader(0, src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Forward(hdr, 0)
		if err != nil || !tr.Delivered {
			t.Fatalf("source %d: delivered %v, err %v", src, tr.Delivered, err)
		}
		if len(tr.Instances) != 1 {
			unserved++
		}
	}
	if unserved != 0 {
		t.Errorf("%d of %d sources visit no firewall", unserved, 1<<(32-prefix.Len))
	}
	if err := c.CheckClassEnforcement(0); err != nil {
		t.Errorf("CheckClassEnforcement: %v", err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

// TestRemoveInFailoverKeepsLedger: the portion ledger charges base
// sub-classes only, so removing a class in failover takes back exactly
// what its base charged. Taking back its spawned sub-class too drove the
// spawned firewall's entry to −225, an instance that reapIdle then never
// reaps and pickInstance prefers.
func TestRemoveInFailoverKeepsLedger(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	cClock(c).Run(6 * time.Second)
	if a, _ := c.assign.get(0); a.NumSubclasses() <= a.NumBase() {
		t.Fatalf("fixture: class 0 has no failover sub-class")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants in failover: %v", err)
	}
	txn := c.Begin()
	txn.StageRemove(0)
	if err := txn.Commit(TxnOptions{Audit: d.CheckInvariants}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	ledger := c.assign.portions()
	for _, id := range sortedKeys(ledger) {
		if p := ledger[id]; math.Abs(p) > 1e-9 {
			t.Errorf("instance %s keeps portion %v with no class installed", id, p)
		}
	}
}
