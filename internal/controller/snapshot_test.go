package controller

import (
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
)

// TestSnapshotIsAValue: a snapshot shares nothing with the controller. An
// old snapshot reads the same after the controller admits a class, fails
// over and removes a class; and edits to a snapshot's action lists, hop
// vectors and instance rows do not reach the controller, whose own hop
// vectors and instance rows are shared with the Dynamic Handler's clones.
func TestSnapshotIsAValue(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	old := c.Snapshot()
	want := old.String()

	if err := c.AddClass(core.Class{ID: 1, Path: linePath(3), Chain: policy.Chain{policy.Proxy}, RateMbps: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600, 1: 100}); err != nil {
		t.Fatal(err)
	}
	cClock(c).Run(6 * time.Second)
	if a, err := c.Assignment(0); err != nil || a.NumSubclasses() == a.NumBase() {
		t.Fatalf("the overload spawned no sub-class (%v)", err)
	}
	txn := c.Begin()
	txn.StageRemove(1)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := old.String(); got != want {
		t.Fatalf("a snapshot changed under later commits: %s", firstDiff(want, got))
	}

	// Compared as text: a snapshot that aliased the controller would
	// change along with it.
	before, edit := c.Snapshot().String(), c.Snapshot()
	for _, tbl := range edit.Tables {
		for _, r := range tbl.Rules {
			for k := range r.Actions {
				r.Actions[k].Port++
			}
		}
	}
	for _, cl := range edit.Classes {
		for s, sub := range cl.Subclasses {
			for h := range sub.Hops {
				sub.Hops[h]++
			}
			for j := range cl.Instances[s] {
				cl.Instances[s][j] += "-edited"
			}
		}
	}
	if got := c.Snapshot().String(); got != before {
		t.Fatalf("editing a snapshot reached the controller: %s", firstDiff(before, got))
	}
}
