package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

func mustPair(t *testing.T, a, b policy.NF) policy.NFPair {
	t.Helper()
	p, err := policy.NewNFPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAntiAffinityRepairSeparatesPair(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(2),
			Chain:    policy.Chain{policy.IDS, policy.Proxy},
			RateMbps: 400,
		}},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for v, m := range pl.Counts {
		if m[policy.IDS] > 0 && m[policy.Proxy] > 0 {
			t.Fatalf("switch %d co-locates ids and proxy: %v", v, m)
		}
	}
}

func TestAntiAffinityUnsatisfiableOnOneHost(t *testing.T) {
	g := lineTopo(t, 1)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(1),
			Chain:    policy.Chain{policy.IDS, policy.Proxy},
			RateMbps: 100,
		}},
		Avail:        bigHosts(1),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	if _, err := NewEngine(EngineOptions{}).Solve(prob); err == nil {
		t.Fatal("a single host cannot separate the pair; Solve should fail")
	}
}

func TestAntiAffinityExactBranching(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(2),
			Chain:    policy.Chain{policy.IDS, policy.Proxy},
			RateMbps: 400,
		}},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	pl, err := NewEngine(EngineOptions{Exact: true}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve(Exact): %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for v, m := range pl.Counts {
		if m[policy.IDS] > 0 && m[policy.Proxy] > 0 {
			t.Fatalf("switch %d co-locates ids and proxy: %v", v, m)
		}
	}
}

func TestAntiAffinityUnconstrainedUnchanged(t *testing.T) {
	// Without anti-affinity the solve must be byte-identical to the
	// classic path: same objective, counts and dist as a problem that
	// never heard of the new fields.
	g := lineTopo(t, 3)
	mk := func() *Problem {
		return &Problem{
			Topo: g,
			Classes: []Class{
				{ID: 1, Path: path(3), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 700},
				{ID: 2, Path: path(3), Chain: policy.Chain{policy.Firewall, policy.Proxy}, RateMbps: 300},
			},
			Avail: bigHosts(3),
		}
	}
	a, err := NewEngine(EngineOptions{}).Solve(mk())
	if err != nil {
		t.Fatal(err)
	}
	prob := mk()
	prob.AntiAffinity = []policy.NFPair{} // empty but non-nil
	b, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	// Simplex pivot counts vary run to run (model variables are added in
	// map order), so compare the placement itself, not Iterations.
	if a.Objective != b.Objective {
		t.Fatalf("empty anti-affinity changed the objective: %d vs %d",
			a.Objective, b.Objective)
	}
	if len(b.Chains) != 0 {
		t.Fatalf("no alternatives declared, yet variant chains recorded: %v", b.Chains)
	}
	for id, dist := range a.Dist {
		for i := range dist {
			for j := range dist[i] {
				if dist[i][j] != b.Dist[id][i][j] {
					t.Fatalf("class %d dist[%d][%d] differs: %v vs %v", id, i, j, dist[i][j], b.Dist[id][i][j])
				}
			}
		}
	}
}

func TestVariantSelectionRescuesInfeasibleCanonical(t *testing.T) {
	// Two classes share a 2-switch path under ids!proxy anti-affinity.
	// Class 1's fixed chain proxy->ids forces proxy@0, ids@1 (dominance:
	// later chain positions may only move downstream). Class 2's canonical
	// ids->proxy would force the mirrored arrangement — co-locating both
	// pairs — but its alternative proxy->ids shares class 1's instances.
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 1, Path: path(2), Chain: policy.Chain{policy.Proxy, policy.IDS}, RateMbps: 300},
			{ID: 2, Path: path(2),
				Chain:     policy.Chain{policy.IDS, policy.Proxy},
				AltChains: []policy.Chain{{policy.Proxy, policy.IDS}},
				RateMbps:  200},
		},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got := pl.ChainFor(prob.Classes[1])
	if !got.Equal(policy.Chain{policy.Proxy, policy.IDS}) {
		t.Fatalf("class 2 should have flipped to proxy->ids, got %v", got)
	}
	if _, ok := pl.Chains[2]; !ok {
		t.Fatal("selected variant must be recorded in Placement.Chains")
	}
}

func TestVariantSelectionPrefersCanonicalOnTies(t *testing.T) {
	// With no anti-affinity both orders cost the same; the canonical
	// chain must win and Placement.Chains stay empty.
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(2),
			Chain:     policy.Chain{policy.Firewall, policy.NAT},
			AltChains: []policy.Chain{{policy.NAT, policy.Firewall}},
			RateMbps:  500,
		}},
		Avail: bigHosts(2),
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Chains) != 0 {
		t.Fatalf("tie must keep the canonical chain, got variants %v", pl.Chains)
	}
	if !pl.ChainFor(prob.Classes[0]).Equal(prob.Classes[0].Chain) {
		t.Fatal("ChainFor should fall back to the canonical chain")
	}
}

func TestAltChainValidation(t *testing.T) {
	g := lineTopo(t, 2)
	c := Class{ID: 1, Path: path(2), Chain: policy.Chain{policy.Firewall, policy.NAT}, RateMbps: 1}
	c.AltChains = []policy.Chain{{policy.Firewall, policy.Firewall}}
	if err := c.Validate(g); err == nil {
		t.Fatal("invalid alternative chain should fail")
	}
	c.AltChains = []policy.Chain{{policy.Firewall, policy.IDS}}
	if err := c.Validate(g); err == nil {
		t.Fatal("alternative over a different NF set should fail")
	}
	c.AltChains = []policy.Chain{{policy.NAT, policy.Firewall}}
	if err := c.Validate(g); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
}

func TestProblemValidateAntiAffinity(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo:    g,
		Classes: []Class{{ID: 1, Path: path(2), Chain: policy.Chain{policy.Firewall}, RateMbps: 1}},
		Avail:   bigHosts(2),
	}
	prob.AntiAffinity = []policy.NFPair{{A: policy.IDS, B: policy.IDS}}
	if err := prob.Validate(); err == nil {
		t.Fatal("self-pair should fail")
	}
	prob.AntiAffinity = []policy.NFPair{{A: policy.IDS, B: policy.Proxy}} // reversed
	if err := prob.Validate(); err == nil {
		t.Fatal("unnormalized pair should fail")
	}
	prob.AntiAffinity = []policy.NFPair{{A: policy.Proxy, B: policy.IDS}}
	if err := prob.Validate(); err != nil {
		t.Fatalf("normalized pair rejected: %v", err)
	}
}

func TestVerifyRejectsColocatedPair(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(2),
			Chain:    policy.Chain{policy.IDS, policy.Proxy},
			RateMbps: 100,
		}},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	pl := &Placement{
		Counts: map[topology.NodeID]map[policy.NF]int{
			0: {policy.IDS: 1, policy.Proxy: 1},
		},
		Dist: map[ClassID][][]float64{
			1: {{1, 1}, {0, 0}},
		},
	}
	err := pl.Verify(prob)
	if err == nil || !strings.Contains(err.Error(), "anti-affine") {
		t.Fatalf("co-located pair should fail verification, got %v", err)
	}
}

func TestGreedyRejectsAntiAffinity(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo:         g,
		Classes:      []Class{{ID: 1, Path: path(2), Chain: policy.Chain{policy.Firewall}, RateMbps: 1}},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	if _, err := SolveGreedy(prob); err == nil {
		t.Fatal("greedy should reject anti-affinity")
	}
}

// TestIncrementalAntiAffinitySeparatesPair: the incremental engine runs
// Engine's repair tail, evictions included, so on
// TestAntiAffinityRepairSeparatesPair's problem Place co-locates no pair,
// passes Verify, and places the instances Engine.Solve places.
func TestIncrementalAntiAffinitySeparatesPair(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 1, Path: path(2),
			Chain:    policy.Chain{policy.IDS, policy.Proxy},
			RateMbps: 400,
		}},
		Avail:        bigHosts(2),
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}
	cold, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncrementalEngine: %v", err)
	}
	pl, _, err := eng.Place(ratesOf(prob))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for v, m := range pl.Counts {
		if m[policy.IDS] > 0 && m[policy.Proxy] > 0 {
			t.Fatalf("switch %d co-locates ids and proxy: %v", v, m)
		}
	}
	if !reflect.DeepEqual(pl.Counts, cold.Counts) {
		t.Fatalf("Place counts %v, Engine.Solve counts %v", pl.Counts, cold.Counts)
	}
}

func TestApplyHierarchy(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 1, Path: path(2), Chain: policy.Chain{policy.NAT}, RateMbps: 100},
			{ID: 2, Path: path(2), Chain: policy.Chain{policy.NAT}, RateMbps: 200},
		},
		Avail: bigHosts(2),
	}
	h := policy.NewHierarchy()
	if err := h.Attach(policy.PolicySpec{
		Name: "org", Scope: policy.ScopeOrg,
		Chain:        policy.Chain{policy.Firewall, policy.IDS},
		AntiAffinity: []policy.NFPair{mustPair(t, policy.IDS, policy.Proxy)},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := policy.NewChainDAG(policy.Proxy)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(policy.PolicySpec{
		Name: "acme-2", Scope: policy.ScopeClass, Tenant: "acme", ClassID: 2,
		Strategy: policy.StrategyMerge, DAG: d,
	}); err != nil {
		t.Fatal(err)
	}
	tenants := map[ClassID]string{1: "acme", 2: "acme"}
	if err := ApplyHierarchy(prob, h, tenants); err != nil {
		t.Fatal(err)
	}
	if !prob.Classes[0].Chain.Equal(policy.Chain{policy.Firewall, policy.IDS}) {
		t.Fatalf("class 1 chain = %v", prob.Classes[0].Chain)
	}
	if len(prob.Classes[0].AltChains) != 0 {
		t.Fatalf("total order should have no alternatives: %v", prob.Classes[0].AltChains)
	}
	// Class 2 merges an unordered proxy: 3 linearizations, canonical first.
	if len(prob.Classes[1].Chain) != 3 || !prob.Classes[1].Chain.Contains(policy.Proxy) {
		t.Fatalf("class 2 chain = %v", prob.Classes[1].Chain)
	}
	if len(prob.Classes[1].AltChains) != 2 {
		t.Fatalf("class 2 alternatives = %v", prob.Classes[1].AltChains)
	}
	if len(prob.AntiAffinity) != 1 || prob.AntiAffinity[0] != mustPair(t, policy.IDS, policy.Proxy) {
		t.Fatalf("problem anti-affinity = %v", prob.AntiAffinity)
	}
	if err := prob.Validate(); err != nil {
		t.Fatalf("hierarchy-applied problem invalid: %v", err)
	}
	if err := ApplyHierarchy(prob, policy.NewHierarchy(), nil); err == nil {
		t.Fatal("empty hierarchy should fail")
	}
}

func TestAdoptChains(t *testing.T) {
	prob := &Problem{
		Classes: []Class{{
			ID: 1, Chain: policy.Chain{policy.IDS, policy.Proxy},
			AltChains: []policy.Chain{{policy.Proxy, policy.IDS}},
		}},
	}
	pl := &Placement{Chains: map[ClassID]policy.Chain{1: {policy.Proxy, policy.IDS}}}
	AdoptChains(prob, pl)
	if !prob.Classes[0].Chain.Equal(policy.Chain{policy.Proxy, policy.IDS}) {
		t.Fatalf("chain not adopted: %v", prob.Classes[0].Chain)
	}
	if prob.Classes[0].AltChains != nil {
		t.Fatal("alternatives should be cleared after adoption")
	}
	AdoptChains(prob, &Placement{}) // no-op
}
