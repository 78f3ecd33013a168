package core

import (
	"testing"

	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// TestSortClassesByRateKeepsTies: classes of equal rate stay in the order
// BuildProblemFromPolicies produced them, so MaxClasses cuts the same
// classes on every run.
func TestSortClassesByRateKeepsTies(t *testing.T) {
	rates := []float64{5, 9, 5, 1, 9, 5, 9, 1}
	cs := make([]Class, len(rates))
	for i, r := range rates {
		cs[i] = Class{ID: ClassID(i), RateMbps: r}
	}
	sortClassesByRate(cs)
	want := []ClassID{1, 4, 6, 0, 2, 5, 3, 7}
	for i, c := range cs {
		if c.ID != want[i] {
			t.Fatalf("position %d holds class %d, want %d: %+v", i, c.ID, want[i], cs)
		}
	}
}

// TestBuildProblemFromPoliciesNumbersClassesByAtomScan: finding a pair's
// atoms through the classifier's index yields the classes, in the order
// and with the rates, that intersecting the pair with every atom in turn
// does.
func TestBuildProblemFromPoliciesNumbersClassesByAtomScan(t *testing.T) {
	const n = 5
	g := lineTopo(t, n)
	tm := traffic.MustNewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := tm.Set(i, j, float64(100+17*i+5*j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sp := headerspace.NewSpace()
	rules := webAndInternalRules(t, sp)
	// Two more rules that cut single pairs' blocks, and one no pair meets.
	for _, r := range []struct {
		f     headerspace.Field
		addr  uint32
		plen  int
		chain policy.Chain
	}{
		{headerspace.FieldSrcIP, 10<<24 | 2<<16 | 128<<8, 17, policy.Chain{policy.IDS}},
		{headerspace.FieldDstIP, 172<<24 | 16<<16 | 3<<8 | 64, 26, policy.Chain{policy.Proxy}},
		{headerspace.FieldSrcIP, 11 << 24, 8, policy.Chain{policy.NAT}},
	} {
		p, err := sp.Prefix(r.f, r.addr, r.plen)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, PolicyRule{Name: "cut", Predicate: p, Chain: r.chain})
	}
	opts := ClassifyOptions{MinRateMbps: 0.001}
	prob, err := BuildProblemFromPolicies(g, tm, sp, rules, bigHosts(n), opts)
	if err != nil {
		t.Fatal(err)
	}

	preds := make([]headerspace.Predicate, len(rules))
	for i, r := range rules {
		preds[i] = r.Predicate
	}
	cls, err := headerspace.NewClassifier(sp, preds)
	if err != nil {
		t.Fatal(err)
	}
	var want []Class
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if tm.At(i, j) < opts.MinRateMbps {
				continue
			}
			pair, err := odPredicate(sp, i, j)
			if err != nil {
				t.Fatal(err)
			}
			for ai := 0; ai < cls.NumClasses(); ai++ {
				members, _ := cls.Membership(ai)
				atom, _ := cls.Atom(ai)
				inter := atom.And(pair)
				if len(members) == 0 || inter.IsFalse() {
					continue
				}
				share := tm.At(i, j) * inter.Fraction() / pair.Fraction()
				if share < opts.MinRateMbps {
					continue
				}
				want = append(want, Class{
					ID:       ClassID(len(want)),
					Path:     []topology.NodeID{topology.NodeID(i), topology.NodeID(j)},
					Chain:    rules[members[0]].Chain,
					RateMbps: share,
				})
			}
		}
	}
	if len(prob.Classes) != len(want) || len(want) <= n*(n-1) {
		t.Fatalf("%d classes, the atom scan gives %d (want more than one per pair)", len(prob.Classes), len(want))
	}
	for k, w := range want {
		got := prob.Classes[k]
		src, dst := got.Path[0], got.Path[len(got.Path)-1]
		if got.ID != w.ID || got.RateMbps != w.RateMbps || !got.Chain.Equal(w.Chain) || src != w.Path[0] || dst != w.Path[1] {
			t.Fatalf("class %d = %+v, the atom scan gives %+v", k, got, w)
		}
	}
}
