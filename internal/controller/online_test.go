package controller

import (
	"errors"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
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
	if len(txn.admitted) != 1 || txn.admitted[0] != cl.ID {
		t.Fatalf("txn.admitted = %v, want [%d]", txn.admitted, cl.ID)
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
	if _, ok := c.instPortion[inst]; ok {
		t.Fatal("unwind left the cancelled instance in the portion ledger")
	}
}
