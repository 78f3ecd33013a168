package controller

import (
	"slices"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// Tests of the install pipeline's coalescing and accounting (setup.go).

// namedOps returns one named install op per name.
func namedOps(names ...string) []flowtable.BatchOp {
	out := make([]flowtable.BatchOp, len(names))
	for i, n := range names {
		out[i] = flowtable.BatchOp{Rule: flowtable.Rule{Name: n}}
	}
	return out
}

// TestGroupOrder pins ruleSteps.group's layout on an install run of three
// classes, each step the classes' operations in turn: tables in the order
// the run first reaches them, each table's operations in emission order
// (class-major), every batch a clipped view of one array. Grouping a
// second step after it finds no table of the first still indexed and
// leaves nothing of the first layout in its buffers' spare room.
func TestGroupOrder(t *testing.T) {
	sw1 := tableKey{dev: device{node: 1}, table: TableRouting}
	vsw1 := tableKey{dev: device{vswitch: true, node: 1}, table: 0}
	sw2 := tableKey{dev: device{node: 2}, table: TableAPPLE}
	var step []tableOp
	for _, class := range [][]struct {
		key   tableKey
		names []string
	}{
		{{sw1, []string{"a0", "a1"}}, {vsw1, []string{"b0"}}},
		{{sw2, []string{"c0"}}, {sw1, []string{"a2"}}},
		{{vsw1, []string{"b1", "b2"}}},
	} {
		for _, b := range class {
			for _, op := range namedOps(b.names...) {
				step = append(step, tableOp{b.key, op})
			}
		}
	}
	want := []struct {
		key   tableKey
		names []string
	}{
		{sw1, []string{"a0", "a1", "a2"}},
		{vsw1, []string{"b0", "b1", "b2"}},
		{sw2, []string{"c0"}},
	}
	s := newRuleSteps(3)
	got := s.group(step)
	if len(got) != len(want) {
		t.Fatalf("%d grouped batches, want %d", len(got), len(want))
	}
	at := 0
	for i, w := range want {
		b := got[i]
		if b.key != w.key {
			t.Errorf("batch %d is table %+v, want %+v", i, b.key, w.key)
		}
		var names []string
		for _, op := range b.ops {
			names = append(names, op.Rule.Name)
		}
		if !slices.Equal(names, w.names) {
			t.Errorf("batch %d ops %v, want %v", i, names, w.names)
		}
		if cap(b.ops) != len(b.ops) || &b.ops[0] != &s.ops[at] {
			t.Errorf("batch %d: %d operations in an array of %d, not at offset %d of the step's", i, len(b.ops), cap(b.ops), at)
		}
		at += len(b.ops)
	}

	again := s.group(step[4:5])
	if len(again) != 1 || again[0].key != sw1 || len(again[0].ops) != 1 || again[0].ops[0].Rule.Name != "a2" {
		t.Errorf("a second step grouped to %+v, want table %+v's a2 alone", again, sw1)
	}
	// Nothing of the first layout is left past the second: a view kept
	// in the batch list's spare room would pin the array it views after
	// empty dropped it (a bulk run's grouped array, megabytes on a
	// FatTree-16 load).
	for i, b := range s.batches[len(again):cap(s.batches)] {
		if b.ops != nil {
			t.Errorf("batch slot %d past the second layout still views the first's array", len(again)+i)
		}
	}
	for i, op := range s.ops[1:cap(s.ops)] {
		if op.Rule.Name != "" || op.Remove != "" {
			t.Errorf("operation slot %d past the second layout still holds %q", 1+i, op.Rule.Name)
		}
	}
}

// TestBatchSimInstallIsMakespan: one AddClassBatch run accrues, as
// simulated TCAM programming time, the installs of its busiest device
// (a switch's tables, or a vSwitch's, program back to back) times the
// per-rule latency — not the sum over devices, nor the busiest table.
//
// On a 4-switch line with APPLE hosts at 0, 2 and 3, every batch class
// enters at switch 1 and heads for a different host, so switch 1's
// classification and routing tables together outgrow any one vSwitch.
func TestBatchSimInstallIsMakespan(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7, HostSwitches: []topology.NodeID{0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// New programs the pass-by and host-match rows outside the pipeline's
	// account; the batch pays only for its own rules.
	before := make(map[tableKey]int)
	if err := c.eachTable(func(k tableKey, tbl *flowtable.Table) error {
		before[k] = tbl.Size()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sim0 := metrics.FlowSetup.SimInstall.Load()
	const ingress = 1
	batch := []core.Class{
		{ID: 1, Path: []topology.NodeID{ingress, 0}, Chain: policy.Chain{policy.Proxy}, RateMbps: 100},
		{ID: 2, Path: []topology.NodeID{ingress, 2}, Chain: policy.Chain{policy.IDS}, RateMbps: 100},
		{ID: 3, Path: []topology.NodeID{ingress, 2, 3}, Chain: policy.Chain{policy.NAT}, RateMbps: 50},
	}
	if err := c.AddClassBatch(batch, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	got := time.Duration(metrics.FlowSetup.SimInstall.Load() - sim0)

	perDevice := make(map[device]int)
	sum, busiestTable := 0, 0
	if err := c.eachTable(func(k tableKey, tbl *flowtable.Table) error {
		added := tbl.Size() - before[k]
		if added < 0 {
			t.Fatalf("table %+v lost %d rules to a batch of new classes", k, -added)
		}
		perDevice[k.dev] += added
		sum += added
		busiestTable = max(busiestTable, added)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	busiest := 0
	for _, n := range perDevice {
		busiest = max(busiest, n)
	}
	// By hand: switch 1 takes three classification rules and three new
	// routes (to 0, 2 and 3); a vSwitch takes two steering rules per
	// class. The scenario must also tell the makespan from its two
	// look-alikes.
	if busiest != 6 || perDevice[device{node: ingress}] != busiest || busiest == sum || busiest == busiestTable {
		t.Fatalf("scenario drifted: switch %d %d, busiest device %d, busiest table %d, all devices %d; want switch %d busiest at 6",
			ingress, perDevice[device{node: ingress}], busiest, busiestTable, sum, ingress)
	}
	lat := c.orch.Latencies().RuleInstall
	if want := time.Duration(busiest) * lat; got != want {
		t.Fatalf("batch accrued %v of simulated install, want %d rules on the busiest device × %v = %v (all devices: %v, busiest table: %v)",
			got, busiest, lat, want, time.Duration(sum)*lat, time.Duration(busiestTable)*lat)
	}
}

// TestBatchFlowSetupCountersMatchLoop: a verified batch does the same
// admission, emission, installation and probing work as verified
// one-class transactions — the per-class counters move alike — but
// coalesces it into fewer per-table critical sections.
func TestBatchFlowSetupCountersMatchLoop(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 100},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.IDS, policy.Firewall}, RateMbps: 100},
		{ID: 3, Path: linePath(2), Chain: policy.Chain{policy.NAT}, RateMbps: 50},
	}
	delta := func(run func(c *Controller) error) metrics.FlowSetupSnapshot {
		c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		before := metrics.FlowSetup.Snapshot()
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		after := metrics.FlowSetup.Snapshot()
		return metrics.FlowSetupSnapshot{
			Arrivals:       after.Arrivals - before.Arrivals,
			StagedRules:    after.StagedRules - before.StagedRules,
			BatchInstalls:  after.BatchInstalls - before.BatchInstalls,
			InstalledRules: after.InstalledRules - before.InstalledRules,
			VerifyProbes:   after.VerifyProbes - before.VerifyProbes,
		}
	}
	loop := delta(func(c *Controller) error {
		for _, cl := range classes {
			txn := c.Begin()
			txn.StageAdd(cl)
			if err := txn.Commit(TxnOptions{Verify: true}); err != nil {
				return err
			}
		}
		return nil
	})
	batch := delta(func(c *Controller) error {
		return c.AddClassBatch(classes, BatchOptions{Verify: true})
	})
	if loop.Arrivals != int64(len(classes)) {
		t.Fatalf("loop admitted %d classes, want %d", loop.Arrivals, len(classes))
	}
	for _, m := range []struct {
		name        string
		loop, batch int64
	}{
		{"Arrivals", loop.Arrivals, batch.Arrivals},
		{"StagedRules", loop.StagedRules, batch.StagedRules},
		{"InstalledRules", loop.InstalledRules, batch.InstalledRules},
		{"VerifyProbes", loop.VerifyProbes, batch.VerifyProbes},
	} {
		if m.loop != m.batch {
			t.Errorf("%s: loop %d, batch %d", m.name, m.loop, m.batch)
		}
	}
	if batch.BatchInstalls >= loop.BatchInstalls {
		t.Errorf("BatchInstalls: batch %d, loop %d; the batch should coalesce per table", batch.BatchInstalls, loop.BatchInstalls)
	}
}

// TestApplyKeepsUndoOfFailedBatch: a table batch that fails part-way
// leaves its earlier operations applied, and the transaction keeps that
// batch's undo token, so the unwind takes them out again.
func TestApplyKeepsUndoOfFailedBatch(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100}); err != nil {
		t.Fatal(err)
	}
	want := c.Snapshot().String()
	txn := c.Begin()
	txn.open()
	batch := []flowtable.BatchOp{
		{Rule: flowtable.Rule{Name: "applied", Priority: 1, Actions: []flowtable.Action{{Type: flowtable.ActDrop}}}},
		{Rule: flowtable.Rule{Name: "invalid"}}, // no actions: refused
	}
	n, err := txn.apply(routingKey(0), batch)
	if err == nil || n != 1 {
		t.Fatalf("apply = %d, %v; want the first rule installed and the second refused", n, err)
	}
	txn.unwind(err)
	if got := c.Snapshot().String(); got != want {
		t.Fatalf("unwind left the failed batch's applied rule: %s", firstDiff(want, got))
	}
}
