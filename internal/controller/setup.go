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
//  2. emit (parallel): pure compilation of each admitted class into a
//     sequence of staged rule operations. No controller state is written;
//     tag lookups hit the allocator's memoized table populated by admit.
//  3. apply (parallel per device table): the staged operations are grouped
//     by target table, preserving both arrival order and each class's
//     internal emission order, and installed with one critical section per
//     table via flowtable.ApplyBatchUndo — the batched-TCAM-update analogue
//     of coalescing per-switch OpenFlow barriers.
//  4. verify (parallel, optional): CheckClassEnforcement re-injects probe
//     packets for every admitted class; the data plane is read-only by
//     then, so the probes race only with each other.
//
// The worker count is pure mechanism: one worker runs every stage inline,
// and any count leaves byte-identical state and an identical journal.

import (
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

// snapshot copies the full id→assignment view. Assignments themselves are
// shared pointers.
func (st *assignStore) snapshot() map[core.ClassID]*Assignment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[core.ClassID]*Assignment, len(st.m))
	for id, a := range st.m {
		out[id] = a
	}
	return out
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

// applyStaged installs staged operations strictly in the order given,
// outside any transaction — the Dynamic Handler's fast failover, whose
// own rollback removes what it installed. Contiguous runs against the
// same table are coalesced into one ApplyBatch call.
func (c *Controller) applyStaged(ops []stagedOp) error {
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].dev == ops[start].dev && ops[end].table == ops[start].table {
			end++
		}
		t, err := c.deviceTable(ops[start].dev, ops[start].table)
		if err != nil {
			return err
		}
		batch := make([]flowtable.BatchOp, 0, end-start)
		for _, op := range ops[start:end] {
			batch = append(batch, op.op)
		}
		n, err := t.ApplyBatch(batch)
		c.ruleUpdates.Add(int64(n))
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
		start = end
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
	staged := make([][]stagedOp, len(admitted))
	if err := pool.RunIndexed(len(admitted), workers, func(i int) (err error) {
		staged[i], err = c.emitClassRules(admitted[i])
		return err
	}); err != nil {
		return 0, err
	}
	stagedRules := 0
	for i, a := range admitted {
		stagedRules += len(staged[i])
		if c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowEmit).
				WithClass(int64(a.Class.ID)).WithVal(int64(len(staged[i]))))
		}
	}
	metrics.FlowSetup.StagedRules.Add(int64(stagedRules))

	// Stage 3 — group by device table, preserving arrival-major emission
	// order, and apply each group in one critical section.
	if err := t.failEach("add:apply", admitted); err != nil {
		return 0, err
	}
	groups, order := groupStaged(staged...)
	installed := make([]int, len(order))
	undos := make([]flowtable.Undo, len(order))
	applyErr := pool.RunIndexed(len(order), workers, func(i int) error {
		k := order[i]
		tbl, err := c.deviceTable(k.dev, k.table)
		if err != nil {
			return err
		}
		installed[i], undos[i], err = tbl.ApplyBatchUndo(groups[k])
		return err
	})
	// Tokens first, error second: a failed apply leaves some groups
	// applied, and the unwind needs the token of every one of them.
	// Each device programs its own TCAM, so a run's simulated programming
	// time is the makespan: the slowest device's installs (its tables
	// program back to back) times the per-rule latency.
	perDevice := make(map[device]int, len(order))
	total, slowest := 0, 0
	t.undo = slices.Grow(t.undo, len(order))
	for i, k := range order {
		t.recordUndo(k, undos[i])
		total += installed[i]
		perDevice[k.dev] += installed[i]
		slowest = max(slowest, perDevice[k.dev])
	}
	t.installed += total
	c.ruleUpdates.Add(int64(total))
	metrics.FlowSetup.SimInstall.Add(int64(slowest) * int64(c.orch.Latencies().RuleInstall))
	if applyErr != nil {
		return 0, fmt.Errorf("controller: %w", applyErr)
	}
	if c.tracer.Enabled() {
		for i, k := range order {
			c.tracer.Emit(trace.Ev(trace.KindFlowApply).
				WithNode(int64(k.dev.node)).WithVal(int64(installed[i])))
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
