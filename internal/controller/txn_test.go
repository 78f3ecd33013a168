package controller

import (
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// allRuleNames collects every rule name installed across all switch and
// vSwitch tables.
func allRuleNames(t *testing.T, c *Controller) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	for _, sw := range c.switches {
		for ti := 0; ti < sw.Pipeline.NumTables(); ti++ {
			tbl, err := sw.Pipeline.Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range tbl.Names() {
				names[n] = true
			}
		}
	}
	for _, h := range c.hosts {
		for ti := 0; ti < h.VSwitch().NumTables(); ti++ {
			tbl, err := h.VSwitch().Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range tbl.Names() {
				names[n] = true
			}
		}
	}
	return names
}

// assertNoClassRules fails if any rule owned by the class survives.
func assertNoClassRules(t *testing.T, c *Controller, id core.ClassID) {
	t.Helper()
	vsw := "vsw-" + itoa(int(id)) + "-"
	cls := "cls-" + itoa(int(id))
	for n := range allRuleNames(t, c) {
		if strings.HasPrefix(n, vsw) || n == cls {
			t.Errorf("stale rule %q for removed class %d", n, id)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func reoptClasses() []core.Class {
	return []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 250},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 150},
	}
}

func scaleClasses(classes []core.Class, f float64) []core.Class {
	out := append([]core.Class(nil), classes...)
	for i := range out {
		out[i].RateMbps *= f
	}
	return out
}

// TestReOptimizeNoChange: re-committing the placement already installed
// touches nothing.
func TestReOptimizeNoChange(t *testing.T) {
	c, prob, pl, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Verify: true, Audit: handler.CheckInvariants})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Unchanged != len(prob.Classes) || rep.ClassesChanged() != 0 {
		t.Errorf("report %+v, want all unchanged", rep)
	}
	if rep.RulesInstalled != 0 || rep.RulesRemoved != 0 {
		t.Errorf("no-change pass touched %d+%d rules", rep.RulesInstalled, rep.RulesRemoved)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestReOptimizeRateDrift: a 30% uniform rate shift re-targets every class
// without adding or removing any, and the installed rates track the new
// snapshot.
func TestReOptimizeRateDrift(t *testing.T) {
	c, prob, _, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	shifted := &core.Problem{Topo: prob.Topo, Classes: scaleClasses(prob.Classes, 1.3), Avail: prob.Avail}
	pl2, err := core.NewEngine(core.EngineOptions{}).Solve(shifted)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(shifted, pl2, ReoptOptions{Verify: true, Audit: handler.CheckInvariants, Reap: true})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Added != 0 || rep.Removed != 0 {
		t.Errorf("uniform drift added/removed classes: %+v", rep)
	}
	if rep.Unchanged != 0 {
		t.Errorf("30%% drift left %d classes unchanged (tolerance is 5%%)", rep.Unchanged)
	}
	for _, cl := range shifted.Classes {
		a, err := c.Assignment(cl.ID)
		if err != nil {
			t.Fatalf("Assignment(%d): %v", cl.ID, err)
		}
		if a.Class.RateMbps != cl.RateMbps {
			t.Errorf("class %d rate %v, want %v", cl.ID, a.Class.RateMbps, cl.RateMbps)
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
	if err := c.CheckTables(); err != nil {
		t.Errorf("CheckTables: %v", err)
	}
}

// TestReOptimizeAddRemove: a snapshot that drops one class and introduces
// another commits as exactly one add and one remove, with the departed
// class's rules gone from every table.
func TestReOptimizeAddRemove(t *testing.T) {
	c, prob, _, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	next := &core.Problem{Topo: prob.Topo, Avail: prob.Avail}
	next.Classes = append(append([]core.Class(nil), prob.Classes[1:]...),
		core.Class{ID: 3, Path: linePath(4), Chain: policy.Chain{policy.NAT}, RateMbps: 300})
	pl2, err := core.NewEngine(core.EngineOptions{}).Solve(next)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(next, pl2, ReoptOptions{Verify: true, Audit: handler.CheckInvariants, Reap: true})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Added != 1 || rep.Removed != 1 {
		t.Errorf("report %+v, want 1 add + 1 remove", rep)
	}
	if _, err := c.Assignment(0); err == nil {
		t.Error("class 0 should be gone")
	}
	if _, err := c.Assignment(3); err != nil {
		t.Errorf("class 3 should be installed: %v", err)
	}
	assertNoClassRules(t, c, 0)
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestTxnStageRemoveDirect exercises the staging API directly.
func TestTxnStageRemoveDirect(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	txn := c.Begin()
	txn.StageRemove(2)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if txn.Removed() == 0 {
		t.Error("removal should account removed rules")
	}
	if _, err := c.Assignment(2); err == nil {
		t.Error("class 2 should be gone")
	}
	assertNoClassRules(t, c, 2)
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestTxnAtomicAcrossOps: one failing staged op unwinds the ops that had
// already committed — the transaction is all-or-nothing even without
// fault injection.
func TestTxnAtomicAcrossOps(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	pre := allRuleNames(t, c)
	txn := c.Begin()
	txn.StageAdd(core.Class{ID: 7, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100})
	txn.StageRemove(99) // not installed — commit must fail
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Fatal("commit with a bad removal should fail")
	}
	if _, err := c.Assignment(7); err == nil {
		t.Error("unwound add left class 7 installed")
	}
	post := allRuleNames(t, c)
	if len(post) != len(pre) {
		t.Errorf("rule set changed across unwind: %d -> %d names", len(pre), len(post))
	}
	for n := range pre {
		if !post[n] {
			t.Errorf("rule %q lost in unwind", n)
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestTxnDoubleCommit: a finished transaction refuses reuse.
func TestTxnDoubleCommit(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	txn := c.Begin()
	txn.StageRemove(2)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Error("second Commit should fail")
	}
}

// TestDropFromPoolClearsTail: regression for the pool-truncation leak —
// the slots beyond the kept prefix must not keep aliasing dropped
// instances through the shared backing array.
func TestDropFromPoolClearsTail(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := linePath(4)[1]
	i1, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	c.poolAdd(v, policy.Firewall, i1)
	c.poolAdd(v, policy.Firewall, i2)
	orig := c.instPool[v][policy.Firewall]
	if len(orig) != 2 {
		t.Fatalf("pool size %d, want 2", len(orig))
	}
	c.dropFromPool(i1.ID(), nil)
	if got := len(c.instPool[v][policy.Firewall]); got != 1 {
		t.Fatalf("pool size after drop %d, want 1", got)
	}
	if orig[1] != nil {
		t.Error("truncated tail still pins the dropped instance")
	}
}

// TestRepoolInstanceClearsTail: same aliasing hazard on the repool path.
func TestRepoolInstanceClearsTail(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := linePath(4)[1]
	i1, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	c.poolAdd(v, policy.Firewall, i1)
	c.poolAdd(v, policy.Firewall, i2)
	orig := c.instPool[v][policy.Firewall]
	if err := i2.Reconfigure(policy.NAT); err != nil {
		t.Fatal(err)
	}
	c.repoolInstance(v, i2)
	if got := len(c.instPool[v][policy.Firewall]); got != 1 {
		t.Fatalf("firewall bucket size %d, want 1", got)
	}
	if got := len(c.instPool[v][policy.NAT]); got != 1 {
		t.Fatalf("nat bucket size %d, want 1", got)
	}
	if orig[1] != nil {
		t.Error("old bucket's truncated tail still pins the moved instance")
	}
}
