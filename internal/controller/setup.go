package controller

// The class-install pipeline. Every new class — an online arrival
// (StageAdd) or a placement-driven install (StageInstall), committed one
// at a time by RuleTxn.Commit or as a whole AddClassBatch — goes through
// RuleTxn.installNew, in four stages:
//
//  1. admit (sequential, arrival order): validation, sub-class derivation
//     (greedy online planning, or the staged distribution), instance
//     picking, tag allocation, and registration in the assignment store.
//     Everything whose outcome depends on who came first stays here.
//  2. emit (parallel): pure compilation of each admitted class into one
//     right-sized batch per table it touches, written once, in the order
//     emission first reaches each table. No controller state is written;
//     tag lookups hit the allocator's memoized table populated by admit.
//  3. apply (parallel per device table): a batch of one class applies its
//     batches as emitted; a larger batch first concatenates them per table,
//     preserving both arrival order and each class's internal emission
//     order. Each table is installed in one critical section via
//     flowtable.ApplyBatchUndo — the batched-TCAM-update analogue of
//     coalescing per-switch OpenFlow barriers.
//  4. verify (parallel, optional): CheckClassEnforcement re-injects probe
//     packets for every admitted class; the data plane is read-only by
//     then, so the probes race only with each other.
//
// The worker count is pure mechanism: one worker runs every stage inline,
// and any count leaves byte-identical state and an identical journal.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/pool"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// assignStore is the id→assignment map behind one lock: the single
// control-plane writer mutates it while Forward and enforcement probes
// read it from other goroutines.
type assignStore struct {
	mu sync.RWMutex
	m  map[core.ClassID]*Assignment // guarded by mu
}

func newAssignStore() *assignStore {
	return &assignStore{m: make(map[core.ClassID]*Assignment)}
}

func (st *assignStore) get(id core.ClassID) (*Assignment, bool) {
	st.mu.RLock()
	a, ok := st.m[id]
	st.mu.RUnlock()
	return a, ok
}

func (st *assignStore) has(id core.ClassID) bool {
	_, ok := st.get(id)
	return ok
}

// put registers a class's assignment, replacing any existing one.
func (st *assignStore) put(id core.ClassID, a *Assignment) {
	st.mu.Lock()
	st.m[id] = a
	st.mu.Unlock()
}

// remove deletes a class's assignment.
func (st *assignStore) remove(id core.ClassID) {
	st.mu.Lock()
	delete(st.m, id)
	st.mu.Unlock()
}

// ids returns every installed class ID, sorted.
func (st *assignStore) ids() []core.ClassID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return sortedKeys(st.m)
}

// sorted returns the installed assignments in ascending class order: the
// one walk order of everything that folds over the whole store, so float
// sums come out the same on every run. The slice is the caller's; the
// assignments are the store's own.
func (st *assignStore) sorted() []*Assignment {
	st.mu.RLock()
	out := make([]*Assignment, 0, len(st.m))
	for _, a := range st.m {
		out = append(out, a)
	}
	st.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Assignment) int { return cmp.Compare(a.Class.ID, b.Class.ID) })
	return out
}

// references reports whether any installed assignment routes traffic
// through the instance.
func (st *assignStore) references(id vnf.ID) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, a := range st.m {
		for _, row := range a.Instances {
			if slices.Contains(row, id) {
				return true
			}
		}
	}
	return false
}

// referenced returns the set of instances the installed assignments route
// traffic through; size is how many the caller expects.
func (st *assignStore) referenced(size int) map[vnf.ID]bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	set := make(map[vnf.ID]bool, size)
	for _, a := range st.m {
		for _, row := range a.Instances {
			for _, id := range row {
				set[id] = true
			}
		}
	}
	return set
}

// device identifies one programmable pipeline: a physical switch's TCAM or
// a host's vSwitch.
type device struct {
	vswitch bool
	node    topology.NodeID
}

// tableKey identifies one flow table of one device.
type tableKey struct {
	dev   device
	table int
}

// tableBatch is the rule operations bound for one table, in the order they
// must apply: what the emit stage produces and one ApplyBatch consumes.
type tableBatch struct {
	key tableKey
	ops []flowtable.BatchOp
}

// batchIndex returns the position of table k's batch in batches, or -1.
// A class touches a handful of tables, so they are found by scanning.
func batchIndex(batches []tableBatch, k tableKey) int {
	for i := range batches {
		if batches[i].key == k {
			return i
		}
	}
	return -1
}

// findBatch returns the operations batches holds for table k.
func findBatch(batches []tableBatch, k tableKey) ([]flowtable.BatchOp, bool) {
	if i := batchIndex(batches, k); i >= 0 {
		return batches[i].ops, true
	}
	return nil, false
}

// ruleGroups builds one class's per-table batches so that every batch is
// allocated once at its final size: reserve declares, in emission order,
// how many operations each table will receive; add fills them, allocating
// a table's batch on its first operation at what was reserved by then.
type ruleGroups struct {
	tables []tableBatch
	need   []int // parallel to tables: operations reserved
}

// newRuleGroups makes room for up to bound tables.
func newRuleGroups(bound int) *ruleGroups {
	return &ruleGroups{tables: make([]tableBatch, 0, bound), need: make([]int, 0, bound)}
}

// slot returns the index of table k's batch, opening it behind the
// existing ones on first sight.
func (g *ruleGroups) slot(k tableKey) int {
	if i := batchIndex(g.tables, k); i >= 0 {
		return i
	}
	g.tables = append(g.tables, tableBatch{key: k})
	g.need = append(g.need, 0)
	return len(g.tables) - 1
}

func (g *ruleGroups) reserve(k tableKey, n int) { g.need[g.slot(k)] += n }

func (g *ruleGroups) add(k tableKey, op flowtable.BatchOp) {
	i := g.slot(k)
	b := &g.tables[i]
	if b.ops == nil {
		b.ops = make([]flowtable.BatchOp, 0, g.need[i])
	}
	b.ops = append(b.ops, op)
}

// mergeBatches concatenates the per-class batches of an install run per
// table: tables in first-appearance order and, within a table, class-major
// emission order, each merged batch allocated once. A run of one class is
// applied as emitted.
func mergeBatches(perClass [][]tableBatch) []tableBatch {
	if len(perClass) == 1 {
		return perClass[0]
	}
	index := make(map[tableKey]int)
	var merged []tableBatch
	var need []int
	for _, batches := range perClass {
		for _, b := range batches {
			i, ok := index[b.key]
			if !ok {
				i = len(merged)
				index[b.key] = i
				merged = append(merged, tableBatch{key: b.key})
				need = append(need, 0)
			}
			need[i] += len(b.ops)
		}
	}
	for i := range merged {
		merged[i].ops = make([]flowtable.BatchOp, 0, need[i])
	}
	for _, batches := range perClass {
		for _, b := range batches {
			i := index[b.key]
			merged[i].ops = append(merged[i].ops, b.ops...)
		}
	}
	return merged
}

// deviceTable resolves a batch's target table.
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

// applyStaged installs emitted batches strictly in the order given, one
// ApplyBatch per table, outside any transaction — the Dynamic Handler's
// fast failover, whose own rollback removes what it installed.
func (c *Controller) applyStaged(batches []tableBatch) error {
	for _, b := range batches {
		t, err := c.deviceTable(b.key.dev, b.key.table)
		if err != nil {
			return err
		}
		n, err := t.ApplyBatch(b.ops)
		c.ruleUpdates.Add(int64(n))
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
	}
	return nil
}

// BatchOptions tunes AddClassBatch.
type BatchOptions struct {
	// Workers bounds the emit, apply, and verify worker pools; 0 means
	// GOMAXPROCS.
	Workers int
	// Verify runs CheckClassEnforcement for every admitted class as a
	// final parallel stage.
	Verify bool
}

// AddClassBatch admits a batch of online flow arrivals in one rule
// transaction: one pipeline run over the whole batch. On success the
// resulting controller state — assignments, tag allocations, installed
// rules, and the rule-update count — is identical to calling AddClass for
// each class in order. If some class fails admission, the classes admitted
// before it are still installed (exactly the AddClass loop's
// postcondition), the failing class leaves nothing behind, and the
// admission error is returned. If installation or verification fails, the
// whole batch unwinds: no class from the batch stays admitted, no partial
// rules remain, and every instance the batch provisioned is cancelled.
func (c *Controller) AddClassBatch(classes []core.Class, opts BatchOptions) error {
	if len(classes) == 0 {
		return nil
	}
	metrics.FlowSetup.Batches.Add(1)
	txn := c.Begin()
	for _, cl := range classes {
		txn.StageAdd(cl)
	}
	txn.open()
	sp := c.tracer.Begin(trace.Ev(trace.KindFlowBatch).WithVal(int64(len(classes))))
	n, err := txn.installNew(txn.staged, opts.Workers, opts.Verify)
	sp.End(int64(txn.installed), err)
	if err != nil && n == 0 {
		txn.unwind(err)
		return err
	}
	txn.finish()
	return err
}

// installNew is the class-install pipeline (see the file comment) over the
// staged add/install ops, in order. It returns how many leading ops now
// stand fully installed. A nil error means all of them. A non-nil error
// with n == 0 means nothing may stand and the caller must unwind the
// transaction; with n > 0 it is the admission error of ops[n], which left
// nothing behind, while ops[:n] are installed and verified.
//
// Failpoints fire and journal events are emitted only from this
// coordinator, per class in index order, never from the worker closures,
// so both are independent of the worker count.
func (t *RuleTxn) installNew(ops []txnOp, workers int, verify bool) (int, error) {
	c := t.c

	// Stage 1 — admit, sequentially in arrival order.
	admitted := make([]*Assignment, 0, len(ops))
	var admitErr error
	for _, op := range ops {
		a, err := t.admit(op)
		if err != nil {
			if len(admitted) == 0 {
				return 0, err
			}
			admitErr = err
			break
		}
		admitted = append(admitted, a)
	}
	metrics.FlowSetup.Arrivals.Add(int64(len(admitted)))

	// Stage 2 — emit. Pure: reads admit-stage state only.
	if err := t.failEach("add:emit", admitted); err != nil {
		return 0, err
	}
	staged := make([][]tableBatch, len(admitted))
	if err := pool.RunIndexed(len(admitted), workers, func(i int) (err error) {
		staged[i], err = c.emitClassRules(admitted[i])
		return err
	}); err != nil {
		return 0, err
	}
	stagedRules := 0
	for i, a := range admitted {
		n := 0
		for _, b := range staged[i] {
			n += len(b.ops)
		}
		stagedRules += n
		if c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowEmit).
				WithClass(int64(a.Class.ID)).WithVal(int64(n)))
		}
	}
	metrics.FlowSetup.StagedRules.Add(int64(stagedRules))

	// Stage 3 — one batch per device table, preserving arrival-major
	// emission order, each applied in one critical section.
	if err := t.failEach("add:apply", admitted); err != nil {
		return 0, err
	}
	batches := mergeBatches(staged)
	installed := make([]int, len(batches))
	undos := make([]flowtable.Undo, len(batches))
	applyErr := pool.RunIndexed(len(batches), workers, func(i int) error {
		k := batches[i].key
		tbl, err := c.deviceTable(k.dev, k.table)
		if err != nil {
			return err
		}
		installed[i], undos[i], err = tbl.ApplyBatchUndo(batches[i].ops)
		return err
	})
	// Tokens first, error second: a failed apply leaves some groups
	// applied, and the unwind needs the token of every one of them.
	// Each device programs its own TCAM, so a run's simulated programming
	// time is the makespan: the slowest device's installs (its tables
	// program back to back) times the per-rule latency.
	perDevice := make(map[device]int, len(batches))
	total, slowest := 0, 0
	t.undo = slices.Grow(t.undo, len(batches))
	for i, b := range batches {
		t.recordUndo(b.key, undos[i])
		total += installed[i]
		perDevice[b.key.dev] += installed[i]
		slowest = max(slowest, perDevice[b.key.dev])
	}
	t.installed += total
	c.ruleUpdates.Add(int64(total))
	metrics.FlowSetup.SimInstall.Add(int64(slowest) * int64(c.orch.Latencies().RuleInstall))
	if applyErr != nil {
		return 0, fmt.Errorf("controller: %w", applyErr)
	}
	if c.tracer.Enabled() {
		for i, b := range batches {
			c.tracer.Emit(trace.Ev(trace.KindFlowApply).
				WithNode(int64(b.key.dev.node)).WithVal(int64(installed[i])))
		}
	}

	// Stage 4 — verify. Read-only against the data plane.
	if verify {
		if err := t.failEach("add:verify", admitted); err != nil {
			return 0, err
		}
		metrics.FlowSetup.VerifyProbes.Add(int64(len(admitted)))
		if err := pool.RunIndexed(len(admitted), workers, func(i int) error {
			return c.CheckClassEnforcement(admitted[i].Class.ID)
		}); err != nil {
			return 0, err
		}
		if c.tracer.Enabled() {
			for _, a := range admitted {
				c.tracer.Emit(trace.Ev(trace.KindFlowVerify).WithClass(int64(a.Class.ID)))
			}
		}
	}
	return len(admitted), admitErr
}

// admit runs the sequential stage for one new class. On success the
// instances it provisioned and the class it registered are recorded in
// the transaction; on failure nothing of the class remains — its
// provisioning is cancelled, its ledger writes taken back — so an
// admission error can drop one class from a batch without unwinding the
// classes before it.
func (t *RuleTxn) admit(op txnOp) (*Assignment, error) {
	c := t.c
	cl := op.cl
	if err := cl.Validate(c.g); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if c.assign.has(cl.ID) {
		return nil, fmt.Errorf("controller: class %d already installed", cl.ID)
	}
	if err := c.ensurePassBy(t); err != nil {
		return nil, err
	}
	var subs []core.Subclass
	var provisioned []vnf.ID
	var err error
	if op.kind == txnAdd {
		if err := t.fail("add:plan", cl.ID); err != nil {
			return nil, err
		}
		// planClass is all-or-nothing: on failure its own provisioning is
		// already cancelled.
		if subs, provisioned, err = c.planClass(cl, t); err != nil {
			return nil, err
		}
	} else {
		if err := t.fail("install:plan", cl.ID); err != nil {
			return nil, err
		}
		if subs, err = core.Subclasses(cl, op.dist); err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
	}
	var a *Assignment
	if err = t.fail("add:admit", cl.ID); err == nil {
		a, err = c.buildAssignment(cl, subs, t)
	}
	if err != nil {
		c.unwindProvisioned(provisioned, t)
		return nil, err
	}
	c.assign.put(cl.ID, a)
	c.journalAdmit(a)
	t.provisioned = append(t.provisioned, provisioned...)
	t.admitted = append(t.admitted, cl.ID)
	return a, nil
}

// unwindProvisioned cancels instances provisioned for a failed arrival.
func (c *Controller) unwindProvisioned(provisioned []vnf.ID, txn *RuleTxn) {
	for _, id := range provisioned {
		_ = c.orch.Cancel(id)
		c.dropFromPool(id, txn)
	}
}
