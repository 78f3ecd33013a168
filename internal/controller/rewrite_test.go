package controller

import (
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
)

// TestHeaderRewritingChainEnforced is the §X scenario: a chain containing
// NAT rewrites the source address mid-flight, so downstream steering can
// no longer match on the header — the globally unique sub-class tag keeps
// enforcement working.
func TestHeaderRewritingChainEnforced(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.NAT, policy.Firewall, policy.IDS}, RateMbps: 400},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.NAT}, RateMbps: 300},
	}
	c, _, _, _ := setup(t, classes)
	for _, id := range []core.ClassID{0, 1} {
		a, err := c.Assignment(id)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Global {
			t.Fatalf("class %d contains NAT; must use global tags", id)
		}
		for s := 0; s < a.NumSubclasses(); s++ {
			if tag := a.Tag(s); tag < globalTagBase {
				t.Fatalf("class %d has local tag %d; want ≥%d", id, tag, globalTagBase)
			}
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement with NAT rewriting: %v", err)
	}
	// The packet really was rewritten: forward a probe and look at its
	// final source.
	hdr, err := c.FlowHeader(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := hdr.SrcIP
	tr, err := c.Forward(hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Delivered {
		t.Fatal("probe not delivered")
	}
	_ = orig // the walker copies the packet internally; rewrite is
	// asserted indirectly: enforcement succeeded even though rules for a
	// non-global class would have required the original source to match.
}

func TestMixedGlobalAndLocalTagsCoexist(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.NAT, policy.IDS}, RateMbps: 300},
		{ID: 1, Path: linePath(3), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 300},
	}
	c, _, _, _ := setup(t, classes)
	a0, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := c.Assignment(1)
	if err != nil {
		t.Fatal(err)
	}
	if !a0.Global || a1.Global {
		t.Fatalf("global flags wrong: %v %v", a0.Global, a1.Global)
	}
	// Local and global tags come from disjoint halves of the space.
	for s0 := 0; s0 < a0.NumSubclasses(); s0++ {
		for s1 := 0; s1 < a1.NumSubclasses(); s1++ {
			if gt, lt := a0.Tag(s0), a1.Tag(s1); gt == lt {
				t.Fatalf("global tag %d collides with local tag %d", gt, lt)
			}
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement: %v", err)
	}
}

func TestGlobalTagAllocatorRecycles(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 400},
	}
	c, _, _, _ := setup(t, classes)
	live, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	a := live.clone()
	used := a.NumSubclasses()
	hops := a.Subclass(0).Hops
	// Allocate and release a tail tag on the same hosts; the next
	// allocation reuses it.
	tag, err := c.allocSubTagFor(a, hops, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.addSubclass(subRecord{hops: hops, tag: tag}, 0, 0, a.Instances(0)[0])
	c.releaseSubTag(a, used, nil)
	a = live.clone()
	again, err := c.allocSubTagFor(a, hops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != tag {
		t.Fatalf("released tag %d not recycled (got %d)", tag, again)
	}
}

// TestGlobalTagsConflictOnlyOnSharedHosts: two header-rewriting classes
// processed at the same host must get distinct tags; classes on disjoint
// hosts may reuse the same tag — which is what lets many NAT classes
// coexist despite the 32-value global half.
func TestGlobalTagsConflictOnlyOnSharedHosts(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 300},
		{ID: 1, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 300},
	}
	c, _, _, _ := setup(t, classes)
	a0, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := c.Assignment(1)
	if err != nil {
		t.Fatal(err)
	}
	shares := func() bool {
		for _, x := range subclassHosts(a0.Class, a0.Subclass(0).Hops) {
			for _, y := range subclassHosts(a1.Class, a1.Subclass(0).Hops) {
				if x == y {
					return true
				}
			}
		}
		return false
	}()
	if shares && a0.Tag(0) == a1.Tag(0) {
		t.Fatalf("classes share a host but got the same global tag %d", a0.Tag(0))
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalTagExhaustionOnOneInstance(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	live, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	a := live.clone()
	hops := a.Subclass(0).Hops
	n := 0
	for {
		tag, err := c.allocSubTagFor(a, hops, nil)
		if err != nil {
			break // the 32-value global half is finite per host
		}
		a.addSubclass(subRecord{hops: hops, tag: tag}, 0, 0, a.Instances(0)[0])
		n++
		if n > 64 {
			t.Fatal("allocator handed out more tags than the field holds")
		}
	}
	if a.NumSubclasses() > 32 {
		t.Fatalf("one host can carry at most 32 global tags, got %d", a.NumSubclasses())
	}
}

func TestLocalTagBudget(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	live, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	a := live.clone()
	hops := a.Subclass(0).Hops
	for a.NumSubclasses() < globalTagBase {
		tag, err := c.allocSubTagFor(a, hops, nil)
		if err != nil {
			t.Fatalf("allocation %d failed early: %v", a.NumSubclasses(), err)
		}
		a.addSubclass(subRecord{hops: hops, tag: tag}, 0, 0, a.Instances(0)[0])
	}
	if _, err := c.allocSubTagFor(a, nil, nil); err == nil {
		t.Fatal("local budget must cap at 32 per class")
	}
}
