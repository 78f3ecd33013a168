package controller

import (
	"runtime"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// Tests for the transaction's delta-sized bookkeeping: the pass-by
// short-circuit, and the cost of a one-class commit not growing with the
// installed state.

// passByCount returns how many switches carry the pass-by rule, failing
// on a duplicate.
func passByCount(t *testing.T, c *Controller) int {
	t.Helper()
	n := 0
	for v, sw := range c.switches {
		tbl, err := sw.Pipeline.Table(TableAPPLE)
		if err != nil {
			t.Fatal(err)
		}
		rules := 0
		for _, r := range tbl.Rules() {
			if r.Name == "pass-by" {
				rules++
			}
		}
		if rules > 1 {
			t.Fatalf("switch %d has %d pass-by rules", v, rules)
		}
		n += rules
	}
	return n
}

// TestPassByFlagSurvivesCommitAndUnwind pins both halves of the pass-by
// short-circuit. Once every switch carries the rule the flag is trusted
// and later commits do not rescan the switches; an unwind clears it, and
// the next admission re-installs the rule *inside its transaction*, so
// that transaction's own unwind takes the rule out again.
func TestPassByFlagSurvivesCommitAndUnwind(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	class := func(id int) core.Class {
		return core.Class{ID: core.ClassID(id), Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 10}
	}
	failing := func(id int) error {
		c.failpoint = func(p string) error {
			if strings.HasPrefix(p, "add:apply") {
				return errInjected
			}
			return nil
		}
		defer func() { c.failpoint = nil }()
		return c.AddClass(class(id))
	}
	switches := len(c.switches)

	// An unwound first admission installed pass-by everywhere and must
	// take it back; twice, to show the second one re-installed and
	// re-tracked it rather than trusting stale state.
	for round := 0; round < 2; round++ {
		if err := failing(1); err == nil {
			t.Fatal("failpoint did not abort the commit")
		}
		if n := passByCount(t, c); n != 0 || c.passByDone {
			t.Fatalf("round %d: after unwind %d switches keep pass-by, passByDone=%v", round, n, c.passByDone)
		}
	}
	if err := c.AddClass(class(1)); err != nil {
		t.Fatal(err)
	}
	if n := passByCount(t, c); n != switches || !c.passByDone {
		t.Fatalf("after commit %d/%d switches carry pass-by, passByDone=%v", n, switches, c.passByDone)
	}

	// With the flag set, a commit does not visit the switches at all: a
	// rule taken out behind the controller's back stays out.
	sw0, err := c.switches[linePath(4)[0]].Pipeline.Table(TableAPPLE)
	if err != nil {
		t.Fatal(err)
	}
	sw0.Remove("pass-by")
	if err := c.AddClass(class(2)); err != nil {
		t.Fatal(err)
	}
	if sw0.Has("pass-by") {
		t.Fatal("commit rescanned the switches although passByDone was set")
	}

	// An unwind that installed no pass-by rule leaves the others alone,
	// still clears the flag, and the next admission repairs the gap.
	if err := failing(3); err == nil {
		t.Fatal("failpoint did not abort the commit")
	}
	if n := passByCount(t, c); n != switches-1 || c.passByDone {
		t.Fatalf("after late unwind %d switches carry pass-by, passByDone=%v", n, c.passByDone)
	}
	if err := c.AddClass(class(3)); err != nil {
		t.Fatal(err)
	}
	if n := passByCount(t, c); n != switches || !c.passByDone {
		t.Fatalf("after repair %d/%d switches carry pass-by, passByDone=%v", n, switches, c.passByDone)
	}
}

// fatTreeClass builds class id on a FatTree in closed form, with
// ingresses concentrated on two pods so per-table state grows quickly.
func fatTreeClass(t testing.TB, l *topology.FatTreeLayout, id int) core.Class {
	t.Helper()
	half := l.K / 2
	srcPod := id % 2
	path, err := l.Path(srcPod, (id/2)%half, (srcPod+1+id%(l.K-1))%l.K, (id/(l.K*half))%half, id)
	if err != nil {
		t.Fatal(err)
	}
	return core.Class{ID: core.ClassID(id), Path: path, Chain: policy.Chain{policy.Firewall}, RateMbps: 1}
}

// TestCommitCostIndependentOfInstalledState pins the transaction's
// O(delta) contract end to end: admitting and then removing one class
// through Begin/StageAdd/Commit and Begin/StageRemove/Commit may allocate
// at most 28 KB more on a controller holding about 64k rules than on one
// holding about 1k. Whole-table pre-images, whole-map ledger copies or a
// rebuild-everything publisher would each break it by an order of
// magnitude. What does grow is the trie paths the two commits copy,
// ≈22 KB and logarithmic in the table. The gate is on that difference in
// bytes, not on a ratio to the small cost: a ratio loosens when the fixed
// part of an admission grows and tightens when it shrinks, and the fixed
// part is not what this test is about.
func TestCommitCostIndependentOfInstalledState(t *testing.T) {
	layout, err := topology.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(classes int) (bytesPerOp float64, rules int) {
		c, err := New(Config{
			Topology: layout.Graph, Clock: sim.New(), Seed: 1,
			HostResources: policy.Resources{Cores: 1 << 20, MemoryMB: 1 << 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]core.Class, classes)
		for id := range batch {
			batch[id] = fatTreeClass(t, layout, id)
		}
		if err := c.AddClassBatch(batch, BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		churn := func(id int) {
			txn := c.Begin()
			txn.StageAdd(fatTreeClass(t, layout, id))
			if err := txn.Commit(TxnOptions{}); err != nil {
				t.Fatal(err)
			}
			txn = c.Begin()
			txn.StageRemove(core.ClassID(id))
			if err := txn.Commit(TxnOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // warm lazily built state
			churn(classes + i)
		}
		const reps = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			churn(classes + 8 + i)
		}
		runtime.ReadMemStats(&after)
		for _, sw := range c.switches {
			rules += sw.Pipeline.TotalSize()
		}
		for _, h := range c.hosts {
			rules += h.VSwitch().TotalSize()
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / reps, rules
	}
	small, smallRules := cost(300)
	large, largeRules := cost(21_500)
	t.Logf("add+remove of one class: %.0f B at %d rules, %.0f B at %d rules", small, smallRules, large, largeRules)
	if smallRules > 2_000 || largeRules < 64_000 {
		t.Fatalf("state sizes %d and %d rules are not the 1k and 64k the test is about", smallRules, largeRules)
	}
	const maxGrowth = 28 << 10
	if large-small > maxGrowth {
		t.Fatalf("one class costs %.0f B at %d rules vs %.0f B at %d: %.0f B more, over %d", large, largeRules, small, smallRules, large-small, maxGrowth)
	}
}
