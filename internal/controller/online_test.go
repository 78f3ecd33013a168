package controller

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

func TestAddClassOnline(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
	}
	c, _, _, _ := setup(t, classes)
	before := len(c.Orchestrator().Instances())

	// A new flow class arrives at runtime.
	newClass := core.Class{
		ID: 7, Path: linePath(4),
		Chain:    policy.Chain{policy.Firewall, policy.Proxy},
		RateMbps: 300,
	}
	if err := c.AddClass(newClass); err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	// The firewall is shared with class 0 (multiplexing: 400+300 < 900),
	// so only the proxy needed a new instance.
	after := len(c.Orchestrator().Instances())
	if after != before+1 {
		t.Fatalf("instances %d -> %d; online placement should reuse the firewall", before, after)
	}
	// Both old and new classes are enforced end to end.
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement: %v", err)
	}
	// Duplicate IDs are rejected.
	if err := c.AddClass(newClass); err == nil {
		t.Fatal("duplicate class ID should fail")
	}
}

func TestAddClassProvisionsWhenNoHeadroom(t *testing.T) {
	// Fill the firewall completely, then add a class that needs one.
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 900},
	}
	c, _, _, _ := setup(t, classes)
	before := len(c.Orchestrator().Instances())
	if err := c.AddClass(core.Class{
		ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 500,
	}); err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if after := len(c.Orchestrator().Instances()); after != before+1 {
		t.Fatalf("expected one new firewall, got %d -> %d", before, after)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
}

func TestAddClassValidation(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.NAT}, RateMbps: 100},
	}
	c, _, _, _ := setup(t, classes)
	if err := c.AddClass(core.Class{ID: 2}); err == nil {
		t.Fatal("invalid class should fail")
	}
	// A class whose demand cannot fit the path must be rejected whole
	// (all-or-nothing placement).
	huge := core.Class{
		ID: 3, Path: linePath(4),
		Chain:    policy.Chain{policy.IDS},
		RateMbps: 1e6,
	}
	if err := c.AddClass(huge); err == nil {
		t.Fatal("unplaceable class should fail")
	}
	if _, err := c.Assignment(3); err == nil {
		t.Fatal("failed AddClass must not leave a partial assignment")
	}
}

func TestAddClassOnFreshController(t *testing.T) {
	// AddClass must work with no prior InstallPlacement at all.
	g := lineTopo(t, 3)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(core.Class{
		ID: 0, Path: linePath(3), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 200,
	}); err != nil {
		t.Fatalf("AddClass on fresh controller: %v", err)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement: %v", err)
	}
}

// TestAddClassWithDynamicHandler: online classes participate in fast
// failover like any other class (the handler picks up new instances).
func TestAddClassWithDynamicHandler(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 300},
	}
	c, _, _, _ := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(core.Class{
		ID: 9, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 300,
	}); err != nil {
		t.Fatal(err)
	}
	// Surge the online class: the handler must see its instances.
	if _, err := d.Observe(map[core.ClassID]float64{0: 300, 9: 1500}); err != nil {
		t.Fatalf("Observe with online class: %v", err)
	}
}

// TestAdmitArrivalRecordsSideEffectsInTxn pins the batch-admit leak fix:
// the pipeline's admit stage itself records every side effect — the
// instances it provisioned and the class it admitted — in the
// transaction, so an unwind triggered by a later stage restores the
// controller even though no caller ever handled the provisioned IDs.
// Before the fix the caller had to copy the IDs into the transaction by
// hand, and a missed copy leaked live instances.
func TestAdmitArrivalRecordsSideEffectsInTxn(t *testing.T) {
	// Class 0 saturates the only firewall, so the arrival below must
	// provision a fresh instance during admit.
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 900},
	}
	c, _, _, _ := setup(t, classes)
	before := len(c.Orchestrator().Instances())

	txn := c.Begin()
	cl := core.Class{ID: 9, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 500}
	txn.StageAdd(cl)
	txn.open()
	if _, err := txn.admit(txn.staged[0]); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if len(txn.provisioned) == 0 {
		t.Fatal("admit provisioned a firewall but recorded nothing in the transaction")
	}
	if len(txn.log) != 1 || txn.log[0] != (storeUndo{id: cl.ID}) {
		t.Fatalf("txn.log = %v, want [{%d <nil>}]", txn.log, cl.ID)
	}

	// Simulate a later-stage failure: the unwind alone must erase every
	// admit-stage side effect. The unwind gives the transaction's buffers
	// back, so the instance is read first.
	inst := txn.provisioned[0]
	txn.unwind(errors.New("install failed"))
	if c.assign.has(cl.ID) {
		t.Fatal("unwind left the admitted class in the assignment store")
	}
	if after := len(c.Orchestrator().Instances()); after != before {
		t.Fatalf("unwind left provisioned instances alive: %d instances before, %d after", before, after)
	}
	if _, ok := c.assign.portions()[inst]; ok {
		t.Fatal("unwind left the cancelled instance in the portion ledger")
	}
}

// TestAddClassZeroRate: a class with no traffic yet still needs its chain
// enforced, so online admission opens an instance per NF on a path with
// room, as SolveGreedy does offline.
func TestAddClassZeroRate(t *testing.T) {
	for _, chain := range []policy.Chain{
		{policy.Firewall},
		{policy.NAT, policy.Firewall},
	} {
		t.Run(chain.String(), func(t *testing.T) {
			c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddClass(core.Class{ID: 0, Path: linePath(4), Chain: chain}); err != nil {
				t.Fatalf("AddClass: %v", err)
			}
			if n := len(c.Orchestrator().Instances()); n != len(chain) {
				t.Fatalf("%d instances for a %d-NF chain", n, len(chain))
			}
			if err := c.CheckEnforcement(); err != nil {
				t.Fatalf("CheckEnforcement: %v", err)
			}
		})
	}
}

// TestGreedyBudgetBothPlacers drives the offline engine (SolveGreedy) and
// online admission (AddClass), which share core.GreedyDist, through a
// binding Eq. (3) budget. Hop 0's host has two cores: room for a NAT,
// not for a firewall. The firewall therefore opens at hop 1, and the NAT,
// though it would fit at hop 0, may not run before the firewall, so it
// must follow it to hop 1. Where hop 1 is the last host and the firewall
// fills it, both placers refuse the class at the NAT's position.
func TestGreedyBudgetBothPlacers(t *testing.T) {
	small := policy.Resources{Cores: 2, MemoryMB: 1024}
	cl := core.Class{ID: 0, Path: linePath(3), Chain: policy.Chain{policy.Firewall, policy.NAT}, RateMbps: 500}
	for _, tc := range []struct {
		name    string
		cfg     Config
		refusal string // "" when the class places
	}{
		{
			name: "budget binds",
			cfg:  Config{HostResourcesBySwitch: map[topology.NodeID]policy.Resources{0: small}},
		},
		{
			name: "short of capacity",
			cfg: Config{
				HostSwitches:          []topology.NodeID{0, 1},
				HostResourcesBySwitch: map[topology.NodeID]policy.Resources{0: small, 1: {Cores: 4, MemoryMB: 1024}},
			},
			refusal: "class 0 position 1 (nat)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newController := func() *Controller {
				cfg := tc.cfg
				cfg.Topology, cfg.Clock, cfg.Seed = lineTopo(t, 3), sim.New(), 7
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			offline := newController()
			prob := &core.Problem{Topo: offline.g, Classes: []core.Class{cl}, Avail: offline.Avail()}
			pl, gerr := core.SolveGreedy(prob)
			online := newController()
			aerr := online.AddClass(cl)
			if tc.refusal != "" {
				for _, err := range []error{gerr, aerr} {
					if err == nil || !strings.Contains(err.Error(), tc.refusal) {
						t.Errorf("SolveGreedy: %v; AddClass: %v; want both to name %q", gerr, aerr, tc.refusal)
					}
				}
				if n := len(online.Orchestrator().Instances()); n != 0 {
					t.Errorf("refused AddClass left %d instances", n)
				}
				return
			}
			if gerr != nil || aerr != nil {
				t.Fatalf("SolveGreedy: %v; AddClass: %v", gerr, aerr)
			}
			if want := [][]float64{{0, 0}, {1, 1}, {0, 0}}; !reflect.DeepEqual(pl.Dist[cl.ID], want) {
				t.Errorf("SolveGreedy Dist = %v, want %v", pl.Dist[cl.ID], want)
			}
			if err := pl.Verify(prob); err != nil {
				t.Errorf("Verify: %v", err)
			}
			if err := offline.InstallPlacement(prob, pl); err != nil {
				t.Fatalf("InstallPlacement: %v", err)
			}
			for _, p := range []struct {
				placer string
				c      *Controller
			}{{"SolveGreedy", offline}, {"AddClass", online}} {
				a, err := p.c.Assignment(cl.ID)
				if err != nil {
					t.Fatal(err)
				}
				if a.NumSubclasses() != 1 || !slices.Equal(a.Subclass(0).Hops, []int{1, 1}) {
					t.Errorf("%s: %d sub-classes, first at hops %v; want one at [1 1]", p.placer, a.NumSubclasses(), a.Subclass(0).Hops)
				}
				if err := p.c.CheckEnforcement(); err != nil {
					t.Errorf("%s: CheckEnforcement: %v", p.placer, err)
				}
			}
		})
	}
}

// TestKnownGapZeroRateClassGetsNoInstance pins a known gap (ROADMAP items
// 14 and 20(b)). A lone class with no traffic yet loads no instance, so
// the LP engine opens none: Eq. (5) holds trivially at zero load, Verify
// accepts the empty placement, and the install then finds no instance to
// enforce the chain with. SolveGreedy, and online admission, open one.
// Item 20(b)'s linking rows d ≤ q close it; then Counts holds the
// firewall, the install succeeds, and this test becomes an assertion
// that the engine and SolveGreedy open the same instance.
func TestKnownGapZeroRateClassGetsNoInstance(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}}
	prob := &core.Problem{Topo: c.g, Classes: []core.Class{cl}, Avail: c.Avail()}
	gr, err := core.SolveGreedy(prob)
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	if n := gr.TotalInstances(); n != 1 {
		t.Fatalf("SolveGreedy opened %d instances, want 1", n)
	}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(pl.Counts) != 0 {
		t.Fatalf("known gap closed? the engine opened %v", pl.Counts)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	err = c.InstallPlacement(prob, pl)
	if err == nil || !strings.Contains(err.Error(), "no running firewall instance at switch 0") {
		t.Fatalf("InstallPlacement: %v, want the missing-firewall refusal", err)
	}
}
