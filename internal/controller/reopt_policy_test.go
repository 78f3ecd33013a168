package controller

// Policy-hierarchy integration tests for the online path: a tenant
// override that flips a chain mid-run must commit as a full
// make-before-break cutover (never rate-only, even when the sub-class
// shape is unchanged), and a problem compiled through the hierarchy must
// drive the controller into byte-identical state to the same problem
// written with flat v1 chains.

import (
	"math/rand"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// flipHierarchy builds the base hierarchy (org-wide firewall->proxy) and
// the same hierarchy with a tenant override reversing the order for
// tenant "web".
func flipHierarchy(t *testing.T, withOverride bool) *policy.Hierarchy {
	t.Helper()
	h := policy.NewHierarchy()
	if err := h.Attach(policy.PolicySpec{
		Name:  "org-default",
		Scope: policy.ScopeOrg,
		Chain: policy.Chain{policy.Firewall, policy.Proxy},
	}); err != nil {
		t.Fatal(err)
	}
	if withOverride {
		if err := h.Attach(policy.PolicySpec{
			Name:     "web-proxy-first",
			Scope:    policy.ScopeTenant,
			Tenant:   "web",
			Strategy: policy.StrategyOverride,
			Chain:    policy.Chain{policy.Proxy, policy.Firewall},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestReOptimizeTenantOverrideFlipCutover pins the delta classifier: when
// a tenant override flips a class's effective chain mid-run, the class
// must commit as a full update — never rate-only or unchanged — even
// though the reversed chain places the same instances on the same hosts
// and therefore compiles to the same sub-class shape. The audit hook runs
// at every class boundary of the commit, so a nil error from ReOptimize
// is a zero-transient-violation proof.
func TestReOptimizeTenantOverrideFlipCutover(t *testing.T) {
	tenants := map[core.ClassID]string{1: "web", 2: "db"}
	mkClasses := func() []core.Class {
		return []core.Class{
			{ID: 1, Path: linePath(4), RateMbps: 400},
			{ID: 2, Path: linePath(4), RateMbps: 300},
		}
	}

	prob := &core.Problem{Classes: mkClasses()}
	if err := core.ApplyHierarchy(prob, flipHierarchy(t, false), tenants); err != nil {
		t.Fatal(err)
	}
	c, prob, _, _ := setup(t, prob.Classes)
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}

	next := &core.Problem{Topo: prob.Topo, Classes: mkClasses(), Avail: prob.Avail}
	if err := core.ApplyHierarchy(next, flipHierarchy(t, true), tenants); err != nil {
		t.Fatal(err)
	}
	want := policy.Chain{policy.Proxy, policy.Firewall}
	if !next.Classes[0].Chain.Equal(want) {
		t.Fatalf("override compiled to %v, want %v", next.Classes[0].Chain, want)
	}
	if !next.Classes[1].Chain.Equal(policy.Chain{policy.Firewall, policy.Proxy}) {
		t.Fatalf("tenant db leaked the web override: %v", next.Classes[1].Chain)
	}
	pl2, err := core.NewEngine(core.EngineOptions{}).Solve(next)
	if err != nil {
		t.Fatal(err)
	}

	audits := 0
	audit := func() error {
		audits++
		if err := handler.CheckInvariants(); err != nil {
			return err
		}
		return c.CheckTables()
	}
	rep, err := c.ReOptimize(next, pl2, ReoptOptions{Verify: true, Audit: audit, Reap: true})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if audits == 0 {
		t.Fatal("audit hook never ran")
	}
	// The flipped class is a full cutover; the untouched tenant stays
	// unchanged. A rate-only (or unchanged) classification here would
	// leave rules enforcing proxy-after-firewall in place.
	if rep.Updated != 1 || rep.RateOnly != 0 || rep.Unchanged != 1 || rep.Added != 0 || rep.Removed != 0 {
		t.Fatalf("report %+v, want exactly one update and one unchanged", rep)
	}
	if rep.RulesInstalled == 0 {
		t.Fatal("chain flip committed without installing any rules")
	}
	a, err := c.Assignment(1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Class.Chain.Equal(want) {
		t.Fatalf("installed chain %v, want %v", a.Class.Chain, want)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
	if err := c.CheckTables(); err != nil {
		t.Errorf("CheckTables: %v", err)
	}
}

// hierarchyForChains rebuilds the drawn flat chains as a hierarchy of
// class-scoped merge layers: each precedence edge of each chain is its
// own spec (single-NF chains get a node-only DAG), attached in shuffled
// order. The union of the edge layers is exactly the chain's path DAG, so
// compilation must reproduce the flat chain verbatim.
func hierarchyForChains(t *testing.T, rng *rand.Rand, classes []core.Class, tenants map[core.ClassID]string) *policy.Hierarchy {
	t.Helper()
	var specs []policy.PolicySpec
	for _, cl := range classes {
		if len(cl.Chain) == 1 {
			d, err := policy.NewChainDAG(cl.Chain[0])
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, policy.PolicySpec{
				Name:    string(rune('a'+int(cl.ID))) + "-node",
				Scope:   policy.ScopeClass,
				Tenant:  tenants[cl.ID],
				ClassID: int(cl.ID),
				DAG:     d,
			})
			continue
		}
		for i := 0; i+1 < len(cl.Chain); i++ {
			d, err := policy.NewChainDAG()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AddEdge(cl.Chain[i], cl.Chain[i+1]); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, policy.PolicySpec{
				Name:    string(rune('a'+int(cl.ID))) + "-edge-" + string(rune('0'+i)),
				Scope:   policy.ScopeClass,
				Tenant:  tenants[cl.ID],
				ClassID: int(cl.ID),
				DAG:     d,
			})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	h := policy.NewHierarchy()
	for _, s := range specs {
		if err := h.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// installDigest solves and installs a problem on a fresh controller and
// returns the full state digest.
func installDigest(t *testing.T, seed int64, prob *core.Problem) string {
	t.Helper()
	g := lineTopo(t, 4)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	prob.Topo = g
	prob.Avail = c.Avail()
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot().String()
}

// TestHierarchyVsFlatDifferential is the 200-seed differential: a problem
// whose chains come out of hierarchy compilation must drive the
// controller into byte-identical state to the same problem written with
// flat v1 chains. Any divergence — in chain linearization, sub-class
// split, weights, tags, or instance naming — shows up in the digest.
func TestHierarchyVsFlatDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed differential")
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen, err := policy.NewGenerator(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(2)
		flat := make([]core.Class, n)
		tenants := make(map[core.ClassID]string, n)
		for i := range flat {
			id := core.ClassID(i + 1)
			flat[i] = core.Class{
				ID:       id,
				Path:     linePath(4),
				Chain:    gen.Next(),
				RateMbps: 200 + float64(rng.Intn(500)),
			}
			tenants[id] = []string{"web", "db"}[rng.Intn(2)]
		}

		hier := make([]core.Class, n)
		copy(hier, flat)
		for i := range hier {
			hier[i].Chain = nil
		}
		h := hierarchyForChains(t, rng, flat, tenants)
		hierProb := &core.Problem{Classes: hier}
		if err := core.ApplyHierarchy(hierProb, h, tenants); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range hierProb.Classes {
			if !hierProb.Classes[i].Chain.Equal(flat[i].Chain) {
				t.Fatalf("seed %d: class %d compiled to %v, want flat %v",
					seed, flat[i].ID, hierProb.Classes[i].Chain, flat[i].Chain)
			}
			if len(hierProb.Classes[i].AltChains) != 0 {
				t.Fatalf("seed %d: a total order grew alternatives: %v",
					seed, hierProb.Classes[i].AltChains)
			}
		}

		dFlat := installDigest(t, 7, &core.Problem{Classes: flat})
		dHier := installDigest(t, 7, hierProb)
		if dFlat != dHier {
			t.Fatalf("seed %d: hierarchy-compiled state diverged from flat v1:\n--- flat ---\n%s\n--- hierarchy ---\n%s",
				seed, dFlat, dHier)
		}
	}
}
