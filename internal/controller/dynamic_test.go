package controller

import (
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
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
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Subclasses) < 2 {
		t.Fatalf("no new sub-class created: %d", len(a.Subclasses))
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
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	if len(a.Subclasses) != len(a.Base) {
		t.Fatalf("spawned sub-classes not rolled back: %d vs %d", len(a.Subclasses), len(a.Base))
	}
	for i := range a.Weights {
		if a.Weights[i] != a.Base[i] {
			t.Fatalf("weights not restored: %v vs %v", a.Weights, a.Base)
		}
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
	if len(a.Subclasses) < 2 {
		t.Skipf("placement produced %d sub-classes; rebalance test needs ≥2", len(a.Subclasses))
	}
	before := len(c.Orchestrator().Instances())
	// Mild surge: total fits in 2×900 but the heavier sub-class tips its
	// instance over.
	if _, err := d.Observe(map[core.ClassID]float64{0: 1700}); err != nil {
		t.Fatal(err)
	}
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
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

type simClock = clockIface

type clockIface interface {
	Run(horizon time.Duration) error
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
	if len(a.Subclasses) < 2 {
		t.Fatalf("repin should have created a sub-class: %d", len(a.Subclasses))
	}
	// Rollback restores the single sub-class when load subsides.
	if _, err := d.Observe(map[core.ClassID]float64{0: 300, 1: 100}); err != nil {
		t.Fatal(err)
	}
	if len(a.Subclasses) != len(a.Base) {
		t.Fatalf("repin sub-classes not rolled back: %d vs base %d", len(a.Subclasses), len(a.Base))
	}
	_ = before
}

func TestExtraCoresAccessor(t *testing.T) {
	_, d, _ := overloadedSetup(t)
	if d.ExtraCores() != 0 {
		t.Fatal("fresh handler should report zero extra cores")
	}
}

// TestRemovedInFailoverForgetsState: a class removed while in failover
// takes its failover state with it. The next Observe cancels the spawned
// instance, stops charging its cores and forgets the class's state and
// epoch, so the same ID re-added later starts clean instead of inheriting
// a rollback for a failover it never had (ROADMAP item 1(d)).
func TestRemovedInFailoverForgetsState(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	if err := cClock(c).Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	if len(d.states) != 0 || len(d.epochs) != 0 {
		t.Fatalf("removed class still has %d failover states and %d epochs", len(d.states), len(d.epochs))
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
