package controller

// Re-optimization racing fast failover, at the transaction level: a
// class is driven into mid-failover state (handler-spawned sub-class
// carrying live weight, failover bookkeeping armed), then a full greedy
// re-optimization commits over it — and every failure point of that
// commit must unwind to a byte-identical controller. This is the
// interleaving the churn replay exercises end to end; here each
// interleaving point is pinned individually.

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/orchestrator"
)

// midFailoverFixture drives the overloaded single-firewall class into
// mid-failover: the surge spawns a failover sub-class, the clock runs
// until the activation commits, and the handler still holds the armed
// failover state (no rollback has run).
type midFailoverFixture struct {
	c    *Controller
	d    *DynamicHandler
	prob *core.Problem
	pl   *core.Placement
}

func newMidFailoverFixture(t *testing.T) *midFailoverFixture {
	t.Helper()
	c, d, prob := overloadedSetup(t)
	clock := cClock(c)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	clock.Run(6 * time.Second)
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() < 2 {
		t.Fatalf("fixture not mid-failover: %d sub-classes", a.NumSubclasses())
	}
	pl, err := core.SolveGreedy(prob)
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	return &midFailoverFixture{c: c, d: d, prob: prob, pl: pl}
}

// TestReoptMidFailoverCommitsAndRollsBack: the full ReOptimize pass
// commits over the mid-failover class with the invariant audit at every
// boundary, and the handler's subsequent recovery rollback adopts (not
// kills) any spawned instance the new placement still references.
func TestReoptMidFailoverCommitsAndRollsBack(t *testing.T) {
	fx := newMidFailoverFixture(t)
	rep, err := fx.c.ReOptimize(fx.prob, fx.pl, ReoptOptions{
		Verify: true,
		Audit:  fx.d.CheckInvariants,
	})
	if err != nil {
		t.Fatalf("ReOptimize mid-failover: %v", err)
	}
	if rep.ClassesChanged()+rep.RateOnly+rep.Unchanged == 0 {
		t.Fatal("re-optimization classified no classes")
	}
	if err := fx.d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reopt: %v", err)
	}
	launched := fx.d.states[0]
	if len(launched) != 1 || fx.d.ExtraCores() != 4 {
		t.Fatalf("before recovery: launches %v holding %d extra cores; want one launch of 4 cores",
			launched, fx.d.ExtraCores())
	}
	spawned := launched[0]
	// Surge subsides: the handler's rollback must not cancel instances
	// the re-optimized placement routes traffic through.
	if _, err := fx.d.Observe(map[core.ClassID]float64{0: 100}); err != nil {
		t.Fatalf("recovery Observe: %v", err)
	}
	if err := fx.d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rollback: %v", err)
	}
	if err := fx.c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement after rollback: %v", err)
	}
	if n := fx.d.PendingSpawns(); n != 0 {
		t.Fatalf("leaked pending spawns: %d", n)
	}
	// The rollback adopted the launch: it joined the plan, so its cores
	// are no longer failover hardware, and it stays managed and pooled.
	if got := fx.d.Counters().Get(CtrSpawnAdoptions); got != 1 {
		t.Fatalf("spawn adoptions = %d, want 1", got)
	}
	if got := fx.d.ExtraCores(); got != 0 {
		t.Fatalf("adopted launch still counts %d extra cores", got)
	}
	if !fx.c.Orchestrator().Known(spawned) {
		t.Fatalf("adopted instance %s no longer managed by the orchestrator", spawned)
	}
	if _, err := fx.c.findInstance(spawned); err != nil {
		t.Fatalf("adopted instance %s left the pool: %v", spawned, err)
	}
}

// TestReoptMidFailoverAuditBoundaryUnwind fails the commit's audit hook
// at every class boundary in turn (each on a fresh, identically driven
// fixture) and asserts the unwind restores the mid-failover state
// byte-identically — including the handler-spawned sub-class, its
// weights, tags and steering rules.
func TestReoptMidFailoverAuditBoundaryUnwind(t *testing.T) {
	// Probe run: count the class boundaries the audit hook sees.
	probe := newMidFailoverFixture(t)
	boundaries := 0
	if _, err := probe.c.ReOptimize(probe.prob, probe.pl, ReoptOptions{
		Audit: func() error { boundaries++; return probe.d.CheckInvariants() },
	}); err != nil {
		t.Fatalf("probe ReOptimize: %v", err)
	}
	if boundaries == 0 {
		t.Fatal("audit hook never fired")
	}
	for k := 0; k < boundaries; k++ {
		t.Run(boundaryName(k), func(t *testing.T) {
			fx := newMidFailoverFixture(t)
			pre := fx.c.Snapshot().String()
			calls := 0
			_, err := fx.c.ReOptimize(fx.prob, fx.pl, ReoptOptions{
				Audit: func() error {
					if calls == k {
						return errInjected
					}
					calls++
					return nil
				},
			})
			if !errors.Is(err, errInjected) {
				t.Fatalf("ReOptimize = %v, want injected fault", err)
			}
			post := fx.c.Snapshot().String()
			if post != pre {
				t.Errorf("state not restored after fault at boundary %d: %s", k, firstDiff(pre, post))
			}
			if err := fx.d.CheckInvariants(); err != nil {
				t.Errorf("CheckInvariants after unwind: %v", err)
			}
			if err := fx.c.CheckEnforcement(); err != nil {
				t.Errorf("CheckEnforcement after unwind: %v", err)
			}
		})
	}
}

func boundaryName(k int) string {
	return "boundary" + string(rune('0'+k))
}

// TestReoptMidFailoverFailpointUnwind drives the mid-failover class
// through a staged cutover (the same update cutover ReOptimize commits
// for a changed class) with a failure injected at every commit step, and
// asserts each unwind restores the armed failover state byte-identically.
func TestReoptMidFailoverFailpointUnwind(t *testing.T) {
	// Probe run: which failpoints fire for this cutover.
	probe := newMidFailoverFixture(t)
	cl := probe.prob.Classes[0]
	dist := probe.pl.Dist[cl.ID]
	var points []string
	txn := probe.c.Begin()
	txn.StageUpdate(cl, dist)
	probe.c.failpoint = func(p string) error {
		points = append(points, p)
		return nil
	}
	if err := txn.Commit(TxnOptions{Verify: true, Audit: probe.d.CheckInvariants}); err != nil {
		t.Fatalf("probe commit: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no failpoints fired")
	}
	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			fx := newMidFailoverFixture(t)
			cl := fx.prob.Classes[0]
			pre := fx.c.Snapshot().String()
			txn := fx.c.Begin()
			txn.StageUpdate(cl, fx.pl.Dist[cl.ID])
			fx.c.failpoint = func(p string) error {
				if p == pt {
					return errInjected
				}
				return nil
			}
			if err := txn.Commit(TxnOptions{Verify: true, Audit: fx.d.CheckInvariants}); !errors.Is(err, errInjected) {
				t.Fatalf("Commit = %v, want injected fault", err)
			}
			post := fx.c.Snapshot().String()
			if post != pre {
				t.Errorf("state not restored after fault at %s: %s", pt, firstDiff(pre, post))
			}
			if err := fx.d.CheckInvariants(); err != nil {
				t.Errorf("CheckInvariants after unwind: %v", err)
			}
		})
	}
}

// TestReoptMidFailoverStaleActivationDropped: a failover spawn still
// booting when a re-optimization refreshes the class's rate must drop its
// activation instead of committing against the orphaned assignment (a
// late commit would install steering rules for a sub-class the live
// assignment does not have). The pass is one rate-only refresh and
// nothing else, so the refresh alone is what drops the spawn.
func TestReoptMidFailoverStaleActivationDropped(t *testing.T) {
	c, d, prob := overloadedSetup(t)
	clock := cClock(c)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if d.PendingSpawns() == 0 {
		t.Fatal("no spawn in flight")
	}
	// Refresh the class's rate while the instance is still booting: a
	// rate change beyond the tolerance with the split unchanged is a
	// rate-only refresh, and a refresh alone replaces the assignment
	// generation the pending activation captured.
	prob.Classes[0].RateMbps = 520
	pl, err := core.SolveGreedy(prob)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Audit: d.CheckInvariants})
	if err != nil {
		t.Fatalf("ReOptimize with spawn in flight: %v", err)
	}
	if rep.RateOnly != 1 || rep.ClassesChanged() != 0 {
		t.Fatalf("report %+v, want exactly one rate-only refresh and no class changed", *rep)
	}
	stalePre := d.Counters().Get(CtrStaleActivations)
	clock.Run(6 * time.Second)
	if got := d.Counters().Get(CtrStaleActivations); got <= stalePre {
		t.Fatalf("stale activation not dropped (counter %d -> %d)", stalePre, got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after late activation: %v", err)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement after late activation: %v", err)
	}
	if n := d.PendingSpawns(); n != 0 {
		t.Fatalf("leaked pending spawns: %d", n)
	}
}

// TestStaleActivationVerdicts: a spawn booting across a transition is
// judged by whether the class is still the generation the spawn was
// computed against. A rollback, an update cutover (what ReOptimize commits
// for a changed class) and a rate-only refresh each install a new one, so
// the late activation is dropped. Another overload of the same class is a
// handler reshape, which keeps the generation, so the activation commits
// with the class weight conserved — the case copy-on-write reshapes, which
// replace the assignment pointer, must not break.
func TestStaleActivationVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		plan   orchestrator.FaultPlan
		across func(t *testing.T, c *Controller, d *DynamicHandler)
		commit bool
	}{
		// The lost cancel keeps the rolled-back launch booting into its
		// activation.
		{"rollback", orchestrator.FaultPlan{CancelFailOn: []int{1}}, func(t *testing.T, c *Controller, d *DynamicHandler) {
			if err := observeOnce(d, map[core.ClassID]float64{0: 100}); err != nil {
				t.Fatalf("rollback: %v", err)
			}
		}, false},
		{"update", orchestrator.FaultPlan{}, func(t *testing.T, c *Controller, d *DynamicHandler) {
			a, _ := c.assign.get(0)
			dist := zeroDist(len(a.Class.Path), len(a.Class.Chain))
			for j := range a.Class.Chain {
				dist[a.Subclass(0).Hops[j]][j] = 1
			}
			txn := c.Begin()
			txn.StageUpdate(a.Class, dist)
			if err := txn.Commit(TxnOptions{}); err != nil {
				t.Fatalf("update: %v", err)
			}
		}, false},
		{"refresh", orchestrator.FaultPlan{}, func(t *testing.T, c *Controller, d *DynamicHandler) {
			txn := c.Begin()
			txn.StageRefresh(0, 520)
			if err := txn.Commit(TxnOptions{}); err != nil {
				t.Fatalf("refresh: %v", err)
			}
		}, false},
		{"overload", orchestrator.FaultPlan{}, func(t *testing.T, c *Controller, d *DynamicHandler) {
			if err := observeOnce(d, map[core.ClassID]float64{0: 1600}); err != nil {
				t.Fatalf("second overload: %v", err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, d, clock := faultySetup(t, tc.plan)
			if err := observeOnce(d, map[core.ClassID]float64{0: 1600}); err != nil {
				t.Fatalf("overload: %v", err)
			}
			if d.PendingSpawns() != 1 {
				t.Fatal("no spawn in flight")
			}
			tc.across(t, c, d)
			stale, activations := d.Counters().Get(CtrStaleActivations), d.Counters().Get(CtrActivations)
			if err := clock.AdvanceTo(6 * time.Second); err != nil {
				t.Fatal(err)
			}
			dStale := d.Counters().Get(CtrStaleActivations) - stale
			dAct := d.Counters().Get(CtrActivations) - activations
			a, err := c.Assignment(0)
			if err != nil {
				t.Fatal(err)
			}
			extra := a.NumSubclasses() - a.NumBase()
			if tc.commit && (dAct != 1 || dStale != 0 || extra != 1) {
				t.Fatalf("activation not committed: activations +%d, stale +%d, %d extra sub-classes", dAct, dStale, extra)
			}
			if !tc.commit && (dAct != 0 || dStale != 1 || extra != 0) {
				t.Fatalf("activation not dropped: activations +%d, stale +%d, %d extra sub-classes", dAct, dStale, extra)
			}
			snap, wsum, bsum := a.snapshot(), 0.0, 0.0
			for _, w := range snap.Weights {
				wsum += w
			}
			for _, w := range snap.Base {
				bsum += w
			}
			if math.Abs(wsum-bsum) > weightTol {
				t.Fatalf("weights %v sum to %v, base %v to %v", snap.Weights, wsum, snap.Base, bsum)
			}
			if d.PendingSpawns() != 0 {
				t.Fatalf("leaked pending spawns: %d", d.PendingSpawns())
			}
			assertInvariants(t, d)
			if err := c.CheckEnforcement(); err != nil {
				t.Fatalf("enforcement: %v", err)
			}
		})
	}
}
