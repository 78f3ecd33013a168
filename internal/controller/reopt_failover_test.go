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
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
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
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Subclasses) < 2 {
		t.Fatalf("fixture not mid-failover: %d sub-classes", len(a.Subclasses))
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
			pre := stateDigest(t, fx.c)
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
			post := stateDigest(t, fx.c)
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
// through a staged cutover (the same commitUpdate path ReOptimize takes
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
			pre := stateDigest(t, fx.c)
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
			post := stateDigest(t, fx.c)
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
// booting when the re-optimization cuts the class over must drop its
// activation instead of committing against the orphaned assignment (a
// late commit would install steering rules for a sub-class the live
// assignment does not have).
func TestReoptMidFailoverStaleActivationDropped(t *testing.T) {
	c, d, prob := overloadedSetup(t)
	clock := cClock(c)
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if d.PendingSpawns() == 0 {
		t.Fatal("no spawn in flight")
	}
	// Cut the class over while the instance is still booting: a rate
	// change beyond the tolerance forces at least a rate-only refresh,
	// which replaces the assignment object the pending activation
	// captured.
	prob.Classes[0].RateMbps = 520
	pl, err := core.SolveGreedy(prob)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Audit: d.CheckInvariants})
	if err != nil {
		t.Fatalf("ReOptimize with spawn in flight: %v", err)
	}
	if rep.ClassesChanged()+rep.RateOnly == 0 {
		t.Fatal("re-optimization did not replace the assignment")
	}
	stalePre := d.Counters().Get(CtrStaleActivations)
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
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
