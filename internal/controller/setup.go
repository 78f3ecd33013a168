package controller

// Concurrent sharded flow setup. The flow-arrival path — classify, tag,
// install rules — is split into three stages so a batch of arrivals can be
// processed by a worker pool while staying byte-identical to the serial
// AddClass loop:
//
//  1. admit (sequential, arrival order): validation, greedy placement,
//     instance picking, tag allocation, and registration in the sharded
//     assignment store. Everything whose outcome depends on who came
//     first stays here, so allocation state matches the serial path
//     exactly.
//  2. emit (parallel): pure compilation of each admitted class into a
//     sequence of staged rule operations. No controller state is written;
//     tag lookups hit the allocator's memoized table populated by admit.
//  3. apply (parallel per device table): the staged operations are grouped
//     by target table, preserving both the batch's arrival order and each
//     class's internal emission order, and installed with one critical
//     section per table via flowtable.ApplyBatch — the batched-TCAM-update
//     analogue of coalescing per-switch OpenFlow barriers.
//
// An optional fourth stage re-injects probe packets (CheckClassEnforcement)
// for every admitted class in parallel; the data plane is read-only by
// then, so the probes race only with each other.

import (
	"fmt"
	"slices"
	"sync"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/hashring"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/pool"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// DefaultSetupShards is the assignment-store stripe count used when the
// Config does not specify one.
const DefaultSetupShards = 8

// assignStore partitions per-class assignments across lock-striped shards.
// Class IDs map to shards by the same avalanche hash the consistent-hash
// ring uses, so reads of different classes (Forward, enforcement probes)
// rarely contend on one lock while a batch install is writing.
type assignStore struct {
	sharder *hashring.Sharder
	shards  []assignShard
}

type assignShard struct {
	mu sync.RWMutex
	m  map[core.ClassID]*Assignment // guarded by mu
}

func newAssignStore(n int) *assignStore {
	if n < 1 {
		n = DefaultSetupShards
	}
	sh, err := hashring.NewSharder(n)
	if err != nil {
		// n is validated above; NewSharder only rejects n < 1.
		panic(err)
	}
	st := &assignStore{sharder: sh, shards: make([]assignShard, n)}
	for i := range st.shards {
		st.shards[i].m = make(map[core.ClassID]*Assignment)
	}
	return st
}

func (st *assignStore) shardOf(id core.ClassID) *assignShard {
	return &st.shards[st.sharder.Shard(uint64(uint32(id)))]
}

func (st *assignStore) get(id core.ClassID) (*Assignment, bool) {
	sh := st.shardOf(id)
	sh.mu.RLock()
	a, ok := sh.m[id]
	sh.mu.RUnlock()
	return a, ok
}

func (st *assignStore) has(id core.ClassID) bool {
	_, ok := st.get(id)
	return ok
}

func (st *assignStore) put(id core.ClassID, a *Assignment) {
	idx := st.sharder.Shard(uint64(uint32(id)))
	sh := &st.shards[idx]
	sh.mu.Lock()
	sh.m[id] = a
	sh.mu.Unlock()
	metrics.FlowSetup.ShardAdmits.Inc(idx)
}

// replace swaps an existing class's assignment pointer (or restores a
// removed one) without counting an admission — the rule-transaction
// update/unwind path.
func (st *assignStore) replace(id core.ClassID, a *Assignment) {
	sh := st.shardOf(id)
	sh.mu.Lock()
	sh.m[id] = a
	sh.mu.Unlock()
}

// remove deletes a class's assignment.
func (st *assignStore) remove(id core.ClassID) {
	sh := st.shardOf(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// ids returns every installed class ID, sorted.
func (st *assignStore) ids() []core.ClassID {
	var out []core.ClassID
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sortClassIDs(out)
	return out
}

// snapshot copies the full id→assignment view. Assignments themselves are
// shared pointers, as in the pre-sharded map.
func (st *assignStore) snapshot() map[core.ClassID]*Assignment {
	out := make(map[core.ClassID]*Assignment)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id, a := range sh.m {
			out[id] = a
		}
		sh.mu.RUnlock()
	}
	return out
}

func sortClassIDs(ids []core.ClassID) {
	slices.Sort(ids)
}

// device identifies one programmable pipeline: a physical switch's TCAM or
// a host's vSwitch.
type device struct {
	vswitch bool
	node    topology.NodeID
}

// stagedOp is one rule operation produced by the emit stage, bound for a
// specific table of a specific device.
type stagedOp struct {
	dev   device
	table int
	op    flowtable.BatchOp
}

// deviceTable resolves a staged operation's target table.
func (c *Controller) deviceTable(d device, table int) (*flowtable.Table, error) {
	if d.vswitch {
		h, ok := c.hosts[d.node]
		if !ok {
			return nil, fmt.Errorf("controller: no APPLE host at switch %d", d.node)
		}
		return h.VSwitch().Table(table)
	}
	sw, ok := c.switches[d.node]
	if !ok {
		return nil, fmt.Errorf("controller: unknown switch %d", d.node)
	}
	return sw.Pipeline.Table(table)
}

// applyStaged installs staged operations in emission order — the serial
// apply path. Contiguous runs against the same table are coalesced into
// one ApplyBatch call, so even the serial path takes each table lock once
// per run rather than once per rule. It returns the number of rules
// actually installed (skip-if-present hits excluded), so callers can
// journal the install without recounting. Each batch's undo token goes to
// txn (nil outside a transaction).
func (c *Controller) applyStaged(ops []stagedOp, txn *RuleTxn) (int, error) {
	total := 0
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].dev == ops[start].dev && ops[end].table == ops[start].table {
			end++
		}
		t, err := c.deviceTable(ops[start].dev, ops[start].table)
		if err != nil {
			return total, err
		}
		batch := make([]flowtable.BatchOp, 0, end-start)
		for _, op := range ops[start:end] {
			batch = append(batch, op.op)
		}
		n, undo, err := t.ApplyBatchUndo(batch)
		txn.recordUndo(tableKey{ops[start].dev, ops[start].table}, undo)
		total += n
		c.ruleUpdates.Add(int64(n))
		// The serial control loop blocks on every TCAM write, so
		// simulated programming time accrues per installed rule.
		metrics.FlowSetup.SimInstall.Add(int64(n) * int64(c.orch.Latencies().RuleInstall))
		if err != nil {
			return total, fmt.Errorf("controller: %w", err)
		}
		start = end
	}
	return total, nil
}

// BatchOptions tunes AddClassBatch.
type BatchOptions struct {
	// Workers bounds the emit, apply, and verify worker pools; 0 uses the
	// assignment store's shard count.
	Workers int
	// Verify runs CheckClassEnforcement for every admitted class as a
	// final parallel stage.
	Verify bool
}

// AddClassBatch admits a batch of online flow arrivals through the staged
// pipeline, inside one rule transaction. On success the resulting
// controller state — assignments, tag allocations, installed rules, and
// the rule-update count — is identical to calling AddClass for each class
// in order; Forward traces and enforcement verdicts therefore cannot
// differ from the serial path. If some class fails admission, the classes
// admitted before it are still installed (exactly the serial loop's
// postcondition) and the admission error is returned. If installation or
// verification fails, the whole batch unwinds: no class from the batch
// stays admitted, no partial rules remain, and every instance the batch
// provisioned is cancelled.
func (c *Controller) AddClassBatch(classes []core.Class, opts BatchOptions) error {
	if len(classes) == 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = c.assign.sharder.Shards()
	}
	metrics.FlowSetup.Batches.Add(1)
	metrics.FlowSetup.Arrivals.Add(int64(len(classes)))

	txn := c.Begin()
	txn.capture()

	// Stage 1 — admit, sequentially in arrival order. admitArrival
	// records its own side effects (provisioned instances, the admitted
	// class) in the transaction: if a later stage fails, the unwind
	// cancels them.
	admitted := make([]*Assignment, 0, len(classes))
	var admitErr error
	for _, cl := range classes {
		a, err := c.admitArrival(cl, txn)
		if err != nil {
			admitErr = fmt.Errorf("controller: batch admit class %d: %w", cl.ID, err)
			break
		}
		admitted = append(admitted, a)
	}

	// Stages 2–4 run for whatever was admitted, even when a later class
	// failed admission, so the postcondition matches the serial loop.
	if err := c.installAdmitted(admitted, workers, opts.Verify, txn); err != nil {
		txn.unwind(err)
		return err
	}
	txn.finish()
	return admitErr
}

// installAdmitted runs emit, apply, and optional verify for already
// admitted assignments. Journal events are emitted only from this
// coordinator, after each parallel stage completes and in index order —
// never from the worker closures — so the journal stays deterministic.
// When txn is non-nil, every group's undo token and the install/remove
// churn are handed to the transaction once the parallel apply is over.
func (c *Controller) installAdmitted(admitted []*Assignment, workers int, verify bool, txn *RuleTxn) (err error) {
	if len(admitted) == 0 {
		return nil
	}
	var installedTotal int64
	if c.tracer.Enabled() {
		sp := c.tracer.Begin(trace.Ev(trace.KindFlowBatch).WithVal(int64(len(admitted))))
		defer func() { sp.End(installedTotal, err) }()
	}

	// Stage 2 — emit, in parallel. Pure: reads admit-stage state only.
	staged := make([][]stagedOp, len(admitted))
	if err := pool.RunIndexed(len(admitted), workers, func(i int) error {
		ops, err := c.emitClassRules(admitted[i])
		if err != nil {
			return err
		}
		staged[i] = ops
		metrics.FlowSetup.StagedRules.Add(int64(len(ops)))
		return nil
	}); err != nil {
		return err
	}
	if c.tracer.Enabled() {
		for i, a := range admitted {
			c.tracer.Emit(trace.Ev(trace.KindFlowEmit).
				WithClass(int64(a.Class.ID)).WithVal(int64(len(staged[i]))))
		}
	}

	// Stage 3 — group by device table, preserving arrival-major emission
	// order, and apply each group in one critical section.
	groups := make(map[tableKey][]flowtable.BatchOp)
	var order []tableKey
	for _, ops := range staged {
		for _, op := range ops {
			k := tableKey{op.dev, op.table}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], op.op)
		}
	}
	installed := make([]int, len(order))
	undos := make([]flowtable.Undo, len(order))
	applyErr := pool.RunIndexed(len(order), workers, func(i int) error {
		k := order[i]
		t, err := c.deviceTable(k.dev, k.table)
		if err != nil {
			return err
		}
		installed[i], undos[i], err = t.ApplyBatchUndo(groups[k])
		c.ruleUpdates.Add(int64(installed[i]))
		return err
	})
	// Tokens first, error second: a failed apply leaves some groups
	// applied, and the unwind needs the token of every one of them.
	for i, k := range order {
		txn.recordUndo(k, undos[i])
		installedTotal += int64(installed[i])
	}
	if txn != nil {
		txn.installed += int(installedTotal)
	}
	if applyErr != nil {
		return fmt.Errorf("controller: %w", applyErr)
	}
	if c.tracer.Enabled() {
		for i, k := range order {
			c.tracer.Emit(trace.Ev(trace.KindFlowApply).
				WithNode(int64(k.dev.node)).WithVal(int64(installed[i])))
		}
	}

	// Each device programs its own TCAM, so a batch's simulated
	// programming time is the makespan: the slowest device's installs
	// (its tables program back to back) times the per-rule latency.
	perDevice := make(map[device]int64, len(order))
	for i, k := range order {
		perDevice[k.dev] += int64(installed[i])
	}
	var slowest int64
	for _, n := range perDevice {
		if n > slowest {
			slowest = n
		}
	}
	metrics.FlowSetup.SimInstall.Add(slowest * int64(c.orch.Latencies().RuleInstall))

	// Stage 4 — verify, in parallel. Read-only against the data plane.
	if verify {
		if err := pool.RunIndexed(len(admitted), workers, func(i int) error {
			metrics.FlowSetup.VerifyProbes.Add(1)
			return c.CheckClassEnforcement(admitted[i].Class.ID)
		}); err != nil {
			return err
		}
		if c.tracer.Enabled() {
			for _, a := range admitted {
				c.tracer.Emit(trace.Ev(trace.KindFlowVerify).WithClass(int64(a.Class.ID)))
			}
		}
	}
	return nil
}

// unwindProvisioned cancels instances provisioned for a failed arrival.
func (c *Controller) unwindProvisioned(provisioned []vnf.ID, txn *RuleTxn) {
	for _, id := range provisioned {
		_ = c.orch.Cancel(id)
		c.dropFromPool(id, txn)
	}
}
