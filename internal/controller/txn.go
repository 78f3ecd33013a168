package controller

// Rule transactions: commit-or-unwind mutation of the controller's flow
// state. Every rule mutation — InstallPlacement, AddClass, AddClassBatch,
// ReOptimize and the Dynamic Handler's reshapes — runs inside a RuleTxn,
// so a class can never end up admitted in the assignment store with half
// its rules installed, and provisioned instances cannot leak when a later
// stage fails.
//
// Protocol (make-before-break):
//
//	stage      — callers declare class-set deltas (adds, updates,
//	             removals). Nothing is touched.
//	commit     — deltas execute in add → update → remove order (a
//	             handler reshape commits with the updates). Every delta
//	             is a cutover from the live assignment to the next one,
//	             compiled by the same three functions (makeRules,
//	             flipRules, retireRules): what the next assignment needs
//	             is installed before the classification flips to it and
//	             what the live one had is retired. An update, a reshape
//	             and a removal are one cutover each (cutover). A new
//	             class is a cutover from nothing — make, then flip —
//	             through the class-install pipeline (installNew,
//	             setup.go), one class per run. Each flow table changes in
//	             single ApplyBatch critical sections (the copy-on-write
//	             matcher publishes old/new atomically per table).
//	verify     — optional enforcement probes after each class's rules
//	             land; an optional audit hook (CheckInvariants in the
//	             harnesses) runs at every class boundary, proving the
//	             intermediate states are violation-free.
//	unwind     — on any error the transaction reverts every table batch
//	             it applied (newest first, each from the undo token the
//	             batch returned), deletes admitted assignments,
//	             re-registers replaced/removed ones, restores the pool
//	             buckets it re-bucketed and cancels provisioned instances:
//	             four kinds of state. The instance-portion ledger and the
//	             route holds follow the class records (assignStore.put
//	             and remove), so they come back with them, each ledger
//	             entry to within rounding.
//	             Controller state is otherwise bit-identical to the
//	             pre-transaction state.
//
// Everything the transaction remembers for that is sized by its own
// delta — the rules its batches added and removed, the classes and pools
// it replaced — never by what is installed.
//
// Process-global telemetry (metrics counters, the rule-update odometer,
// the trace journal) is monotone and deliberately not rolled back: an
// unwound transaction really did program and un-program TCAMs.
//
// A transaction is single-use and not safe for concurrent use; it
// inherits the controller's single-writer discipline.

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

type txnOpKind int

const (
	txnAdd     txnOpKind = iota // greedy online placement (AddClass, AddClassBatch)
	txnInstall                  // placement-driven install (InstallPlacement, ReOptimize adds)
	txnUpdate                   // cutover to a new distribution
	txnRemove                   // cutover to nothing: class teardown
	txnReshape                  // cutover to a Dynamic Handler reshape of weights and tail sub-classes
)

// txnOp is one staged class delta. The kind records how a cutover
// obtains its next assignment: built from cl and dist (txnUpdate), staged
// as next (txnReshape), or none (txnRemove).
type txnOp struct {
	kind txnOpKind
	cl   core.Class
	dist [][]float64
	id   core.ClassID
	next *Assignment // txnReshape: the reshaped copy of the live assignment
}

// TxnOptions tunes Commit.
type TxnOptions struct {
	// Verify runs CheckClassEnforcement for every class whose rules were
	// installed or replaced, right after they land.
	Verify bool
	// Audit, when non-nil, runs after every class's delta completes (the
	// per-class quiescent points). A non-nil return aborts and unwinds.
	// The churn/invariant harnesses pass DynamicHandler.CheckInvariants
	// here to prove zero transient violations.
	Audit func() error
}

// rateDelta is a staged refresh: class id's installed assignment is
// rewritten to carry rate. It commits in the update phase before
// staged[at], the op staged after it, so deltas commit in the order they
// were staged. Its commit records the pre-image an unwind writes back —
// the rate and generation the assignment held — and after, how many
// pre-images of replaced classes (prevOrder) the transaction held then,
// which places the refresh among them when they are put back.
type rateDelta struct {
	id       core.ClassID
	rate     float64
	prevRate float64
	at       int32
	after    int32
	prevGen  uint32
}

// RuleTxn stages a class-set delta and commits it atomically against the
// controller. Obtain one from Controller.Begin. A finished transaction
// holds no buffers: it must not be staged on again.
type RuleTxn struct {
	c *Controller
	*txnScratch

	opened   bool
	finished bool

	installed int
	removed   int
}

// txnScratch is a transaction's delta-sized working memory. The
// controller keeps one spare set (Controller.spare): Begin takes it, and
// finish and unwind clear it and give it back once the transaction is
// done reading it, so a commit reuses the buffers of the commit before
// it. A transaction begun while the spare set is out gets a fresh one.
type txnScratch struct {
	staged []txnOp
	// refreshes are kept apart from staged: a day's rate-only refreshes
	// are most of a re-optimization's deltas and need only these 40 bytes,
	// their pre-images included. The first refreshed of them have
	// committed.
	refreshes []rateDelta
	refreshed int
	// Pre-transaction pool buckets of the switches repoolInstance wrote.
	prevPools map[topology.NodeID]map[policy.NF][]*vnf.Instance
	// undo holds the inverse of every table batch applied, in apply
	// order.
	undo []tableUndo
	// Assignment-store deltas: classes put during the txn, and the
	// pre-images of classes replaced or removed.
	admitted   []core.ClassID
	prevAssign map[core.ClassID]*Assignment
	prevOrder  []core.ClassID
	// Instances provisioned during the txn.
	provisioned []vnf.ID
	// One install-pipeline run's admitted assignments and the rules
	// installed per device (installNew).
	runAdmitted  []*Assignment
	runPerDevice map[device]int
	// fresh marks, switch by switch along the path of each class of the
	// install run (or of the cutover's next), whether the class is the
	// first holder of that switch's route (assignStore.unheld): the
	// routes its make step installs. moves are the routes a cutover's
	// retire step removes or re-points (assignStore.routeMoves).
	fresh []bool
	moves []routeMove
}

// scratchCap is the most entries a buffer of the spare set may hold, or
// have room for, and still be kept: a bulk load or a large
// re-optimization grows its buffers past it, and they are dropped rather
// than held by the controller until the next bulk operation.
const scratchCap = 16

// reset empties every buffer for the next transaction, dropping the ones
// grown past scratchCap.
func (s *txnScratch) reset() {
	s.staged = reuse(s.staged)
	s.refreshes, s.refreshed = reuse(s.refreshes), 0
	s.prevPools = reuseMap(s.prevPools)
	s.undo = reuse(s.undo)
	s.admitted = reuse(s.admitted)
	s.prevAssign = reuseMap(s.prevAssign)
	s.prevOrder = reuse(s.prevOrder)
	s.provisioned = reuse(s.provisioned)
	s.runAdmitted = reuse(s.runAdmitted)
	s.runPerDevice = reuseMap(s.runPerDevice)
	s.fresh = reuse(s.fresh)
	s.moves = reuse(s.moves)
}

// reuse empties s, zeroing what it held so a kept buffer pins nothing of
// the transaction, or drops it if it has room for more than scratchCap
// entries.
func reuse[S ~[]E, E any](s S) S { return reuseUpTo(s, scratchCap) }

// reuseUpTo empties s, zeroing what it held, or drops it if it has room
// for more than bound entries.
func reuseUpTo[S ~[]E, E any](s S, bound int) S {
	if cap(s) > bound {
		return nil
	}
	clear(s)
	return s[:0]
}

// reuseMap empties m, or drops it if it holds more than scratchCap
// entries: a map keeps the buckets it grew.
func reuseMap[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) > scratchCap {
		return nil
	}
	clear(m)
	return m
}

// emptyWithRoom returns s emptied, or a new empty slice if s has room for
// fewer than n entries. (slices.Grow allocates twice under the race
// detector.)
func emptyWithRoom[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}

// Begin starts an empty transaction.
func (c *Controller) Begin() *RuleTxn {
	s := c.spare
	if s == nil {
		s = new(txnScratch)
	}
	c.spare = nil
	return &RuleTxn{c: c, txnScratch: s}
}

// grow makes room for ops staged deltas, refreshes refreshes and replaced
// pre-images of installed classes cut over or removed, for callers that
// know what they are about to stage. It is called before anything is
// staged.
func (t *RuleTxn) grow(ops, refreshes, replaced int) {
	t.staged = emptyWithRoom(t.staged, ops)
	t.refreshes = emptyWithRoom(t.refreshes, refreshes)
	t.prevOrder = emptyWithRoom(t.prevOrder, replaced)
	if t.prevAssign == nil || replaced > scratchCap {
		t.prevAssign = make(map[core.ClassID]*Assignment, replaced)
	}
}

// StageAdd stages an online arrival: greedy placement against live
// capacity, provisioning instances as needed.
func (t *RuleTxn) StageAdd(cl core.Class) {
	t.staged = append(t.staged, txnOp{kind: txnAdd, cl: cl})
}

// StageInstall stages a placement-driven install: the class's sub-class
// distribution comes from an Optimization Engine placement instead of
// the greedy planner. Instances must already be provisioned.
func (t *RuleTxn) StageInstall(cl core.Class, dist [][]float64) {
	t.staged = append(t.staged, txnOp{kind: txnInstall, cl: cl, dist: dist})
}

// StageUpdate stages a cutover of an installed class to a new
// distribution: what the new assignment needs is installed before the
// classification flips to it and the stale rules are removed
// (make-before-break).
func (t *RuleTxn) StageUpdate(cl core.Class, dist [][]float64) {
	t.staged = append(t.staged, txnOp{kind: txnUpdate, cl: cl, dist: dist, id: cl.ID})
}

// StageRefresh stages a bookkeeping-only rate change for installed class
// id, whose rule set is unchanged: the installed assignment is rewritten
// in place to carry the new rate, which the store charges to the
// instance-portion ledger in place of the old one, under a new
// generation; no flow table is touched.
func (t *RuleTxn) StageRefresh(id core.ClassID, rate float64) {
	t.refreshes = append(t.refreshes, rateDelta{id: id, rate: rate, at: int32(len(t.staged))})
}

// StageRemove stages a class teardown, a cutover to nothing:
// classification first (new packets stop matching), then steering, then
// the routes no other class holds.
func (t *RuleTxn) StageRemove(id core.ClassID) {
	t.staged = append(t.staged, txnOp{kind: txnRemove, id: id})
}

// stageReshape stages a Dynamic Handler reshape: next is a reshaped
// Assignment.clone of an installed class's live assignment.
func (t *RuleTxn) stageReshape(next *Assignment) {
	t.staged = append(t.staged, txnOp{kind: txnReshape, id: next.Class.ID, next: next})
}

// Installed and Removed report the rule churn of a committed
// transaction.
func (t *RuleTxn) Installed() int { return t.installed }
func (t *RuleTxn) Removed() int   { return t.removed }

// Commit executes the staged deltas in make-before-break order — adds
// first, updates next, removals last — and either commits them all or
// unwinds every side effect. After Commit returns the transaction is
// finished and must not be reused.
func (t *RuleTxn) Commit(opts TxnOptions) (err error) {
	if t.finished {
		return fmt.Errorf("controller: transaction already finished")
	}
	t.open()
	defer func() {
		if err != nil {
			t.unwind(err)
		} else {
			t.finish()
		}
	}()
	// audited completes one class delta: the steps it compiled are dead,
	// and the audit runs once it stands.
	audited := func(err error) error {
		t.c.steps.empty(math.MaxInt)
		if err == nil && opts.Audit != nil {
			if err = opts.Audit(); err != nil {
				return fmt.Errorf("controller: transaction audit after class delta: %w", err)
			}
		}
		return err
	}
	phases := []struct {
		want      func(txnOpKind) bool
		refreshes bool
	}{
		{want: func(k txnOpKind) bool { return k == txnAdd || k == txnInstall }},
		{want: func(k txnOpKind) bool { return k == txnUpdate || k == txnReshape }, refreshes: true},
		{want: func(k txnOpKind) bool { return k == txnRemove }},
	}
	for _, ph := range phases {
		// Refreshes commit with the updates, each where it was staged
		// among them.
		r := 0
		for i := 0; i <= len(t.staged); i++ {
			for ; ph.refreshes && r < len(t.refreshes) && int(t.refreshes[r].at) == i; r++ {
				if err = audited(t.commitRefresh(r)); err != nil {
					return err
				}
			}
			if i == len(t.staged) || !ph.want(t.staged[i].kind) {
				continue
			}
			if op := t.staged[i]; op.kind == txnAdd || op.kind == txnInstall {
				// One pipeline run per class keeps the per-class audit
				// boundary.
				_, err = t.installNew(t.staged[i:i+1], opts.Verify)
			} else {
				err = t.commitCutover(op, opts)
			}
			if err = audited(err); err != nil {
				return err
			}
		}
	}
	return nil
}

// open starts the transaction: from here on every side effect is
// tracked and must end in finish or unwind. Idempotent — Commit calls it,
// and entry points that act before Commit (provisioning instances, running
// the install pipeline directly) call it first, after staging, so the
// journaled txn.begin carries the staged-delta count.
func (t *RuleTxn) open() {
	if t.opened {
		return
	}
	t.opened = true
	metrics.Txn.Begun.Add(1)
	if t.c.tracer.Enabled() {
		t.c.tracer.Emit(trace.Ev(trace.KindTxnBegin).WithVal(int64(len(t.staged) + len(t.refreshes))))
	}
}

// finish marks a successful commit.
func (t *RuleTxn) finish() {
	t.finished = true
	metrics.Txn.Committed.Add(1)
	metrics.Txn.RulesInstalled.Add(int64(t.installed))
	metrics.Txn.RulesRemoved.Add(int64(t.removed))
	if t.c.tracer.Enabled() {
		t.c.tracer.Emit(trace.Ev(trace.KindTxnCommit).WithVal(int64(t.installed)))
	}
	t.release()
}

// release ends the transaction's hold on its buffers: the step buffers
// are emptied, and dropped past stepCap, and the buffer set is cleared and
// becomes the controller's spare set, unless another transaction's set got
// there first.
func (t *RuleTxn) release() {
	t.c.steps.empty(stepCap)
	t.txnScratch.reset()
	if t.c.spare == nil {
		t.c.spare = t.txnScratch
	}
	t.txnScratch = nil
}

// unwind restores the controller to its pre-transaction state: table
// batches reverted newest first, admitted classes out of the store and
// replaced/removed classes back in, and refreshed ones back at their old
// rate and generation, newest first — their portion charges with them —
// re-bucketed pools restored, and provisioned instances cancelled and
// de-pooled.
func (t *RuleTxn) unwind(cause error) {
	t.finished = true
	c := t.c
	restored := make(map[tableKey]bool)
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if tbl, err := c.deviceTable(u.key.dev, u.key.table); err == nil {
			tbl.Revert(u.token)
			restored[u.key] = true
			if c.published != nil {
				c.published(u.key)
			}
		}
	}
	for i := len(t.admitted) - 1; i >= 0; i-- {
		c.assign.remove(t.admitted[i])
	}
	r := t.refreshed
	for i := len(t.prevOrder) - 1; i >= -1; i-- {
		// The refreshes committed after prevOrder[i] was recorded go back
		// first; a class this transaction admitted is already gone, its
		// charges at the refreshed rate with it.
		for ; r > 0 && int(t.refreshes[r-1].after) > i; r-- {
			u := t.refreshes[r-1]
			if a, ok := c.assign.get(u.id); ok {
				c.assign.refresh(a, u.prevRate, u.prevGen)
			}
		}
		if i >= 0 {
			id := t.prevOrder[i]
			c.assign.put(id, t.prevAssign[id])
		}
	}
	for v, pre := range t.prevPools {
		c.instPool[v] = pre
	}
	for _, id := range t.provisioned {
		_ = c.orch.Cancel(id)
		c.dropFromPool(id, nil)
	}
	metrics.Txn.Unwound.Add(1)
	metrics.Txn.TablesRestored.Add(int64(len(restored)))
	if c.tracer.Enabled() {
		c.tracer.Emit(trace.Ev(trace.KindTxnUnwind).WithVal(int64(len(restored))).WithErr(cause))
	}
	t.release()
}

// fail triggers the named failpoint when the test hook is set.
func (t *RuleTxn) fail(point string, id core.ClassID) error {
	if t.c.failpoint == nil {
		return nil
	}
	return t.c.failpoint(fmt.Sprintf("%s:%d", point, id))
}

// failEach triggers the named failpoint for every class, in order.
func (t *RuleTxn) failEach(point string, classes []*Assignment) error {
	if t.c.failpoint == nil {
		return nil
	}
	for _, a := range classes {
		if err := t.fail(point, a.Class.ID); err != nil {
			return err
		}
	}
	return nil
}

// tableUndo is the inverse of one table batch.
type tableUndo struct {
	key   tableKey
	token flowtable.Undo
}

// reserveUndo sizes the undo list once for a transaction of staged
// placement installs, instead of regrowing it run by run. A class
// installed from a distribution takes, in its make step, a batch for the
// routing table of each switch on its path whose route it is the first
// to hold and for the steering table of each switch that processes a
// share of it, and in its flip step one for the ingress APPLE table: at
// most len(Path)+P+1 batches for P processing positions.
func (t *RuleTxn) reserveUndo() {
	n := len(t.undo)
	for _, op := range t.staged {
		if op.kind != txnInstall {
			continue
		}
		procs := 0
		for _, shares := range op.dist {
			if slices.ContainsFunc(shares, func(x float64) bool { return x > 0 }) {
				procs++
			}
		}
		n += len(op.cl.Path) + procs + 1
	}
	t.undo = slices.Grow(t.undo, n-len(t.undo))
}

// applyStep applies one step one batch per table (ruleSteps.group), in
// the order the step first reaches each table. applied, when non-nil, is
// told of every batch applied, failed or not: its table, how many rules it
// installed and its error.
func (t *RuleTxn) applyStep(step []tableOp, applied func(k tableKey, rules int, err error)) error {
	batches := t.c.steps.group(step)
	t.undo = slices.Grow(t.undo, len(batches))
	for _, b := range batches {
		rules, err := t.apply(b.key, b.ops)
		if applied != nil {
			applied(b.key, rules, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// apply runs one batch against one table in a single critical section,
// keeping its undo token and accounting installed and removed rules, and
// returns how many rules it installed. The token is kept on error too: a
// failed batch leaves its earlier operations applied, and the unwind needs
// that token. Every step applyStep applies is a sequence of these.
func (t *RuleTxn) apply(k tableKey, batch []flowtable.BatchOp) (int, error) {
	tbl, err := t.c.deviceTable(k.dev, k.table)
	if err != nil {
		return 0, err
	}
	n, undo, err := tbl.ApplyBatchUndo(batch)
	t.undo = append(t.undo, tableUndo{key: k, token: undo})
	t.removed += undo.Removed()
	if t.c.published != nil {
		t.c.published(k)
	}
	t.installed += n
	t.c.ruleUpdates.Add(int64(n))
	if err != nil {
		return n, fmt.Errorf("controller: %w", err)
	}
	return n, nil
}

// trackPool records switch v's pool buckets on first write. The buckets
// are copied: pool edits filter them in place.
func (t *RuleTxn) trackPool(v topology.NodeID) {
	if _, seen := t.prevPools[v]; seen {
		return
	}
	if t.prevPools == nil {
		t.prevPools = make(map[topology.NodeID]map[policy.NF][]*vnf.Instance)
	}
	pre := maps.Clone(t.c.instPool[v])
	for nf, insts := range pre {
		pre[nf] = slices.Clone(insts)
	}
	t.prevPools[v] = pre
}

// trackPrevAssign records the pre-image of a class the transaction is
// about to replace or remove (first write wins).
func (t *RuleTxn) trackPrevAssign(id core.ClassID, a *Assignment) {
	if _, ok := t.prevAssign[id]; ok {
		return
	}
	if t.prevAssign == nil {
		t.prevAssign = make(map[core.ClassID]*Assignment)
	}
	t.prevAssign[id] = a
	t.prevOrder = append(t.prevOrder, id)
}

// commitCutover commits a staged update, reshape or removal as one
// cutover of the class's live assignment to next. Only how next is
// obtained differs: an update builds it from the staged distribution, a
// reshape staged it, a removal has none. An update is journaled and, with
// opts.Verify, probed once it stands.
func (t *RuleTxn) commitCutover(op txnOp, opts TxnOptions) error {
	c := t.c
	old, ok := c.assign.get(op.id)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", op.id)
	}
	if op.kind != txnUpdate {
		return t.cutover(old, op.next)
	}
	next, err := t.buildUpdate(op, old)
	if err != nil {
		return err
	}
	if err := t.cutover(old, next); err != nil {
		return err
	}
	c.journalAdmit(next)
	if !opts.Verify {
		return nil
	}
	if err := t.fail("update:verify", op.id); err != nil {
		return err
	}
	metrics.FlowSetup.VerifyProbes.Add(1)
	if err := c.CheckClassEnforcement(op.id); err != nil {
		return err
	}
	if c.tracer.Enabled() {
		c.tracer.Emit(trace.Ev(trace.KindFlowVerify).WithClass(int64(op.id)))
	}
	return nil
}

// buildUpdate builds an update's next assignment from the staged
// distribution without registering it. The live assignment old is still
// installed, so a header-rewriting class draws global tags that do not
// conflict with its own, and next's instances are picked against a ledger
// that still charges the live one's base: the cutover's swap charges next
// before it takes the live base back (assignStore.put). On old's path,
// next is as old as old's install (Assignment.since).
func (t *RuleTxn) buildUpdate(op txnOp, old *Assignment) (*Assignment, error) {
	if err := t.fail("update:plan", op.id); err != nil {
		return nil, err
	}
	subs, err := core.Subclasses(op.cl, op.dist)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if err := t.fail("update:build", op.id); err != nil {
		return nil, err
	}
	next, err := t.c.buildAssignment(op.cl, subs, t)
	if err == nil && slices.Equal(next.Class.Path, old.Class.Path) {
		next.since = old.since
	}
	return next, err
}

// cutover moves a class from its live assignment old to next, or removes
// it when next is nil, make-before-break in four steps, each behind one
// failpoint:
//
//  1. make (cutover:steer): what next needs and old lacks is installed.
//     A sub-class of next that keeps old's steering (keepsSteering) is
//     left alone. Every other one gets its steering, and each switch of a
//     new path whose route no installed class holds yet (old still
//     counting) gets it. On a host where it replaces old's sub-class of
//     the same index, the old rules' removal and the new rules share one
//     batch.
//  2. flip (cutover:cls): the ingress classification moves to next's
//     sub-classes in one remove-then-install batch, or is removed. When
//     next's classification compiles to the installed rules, they stand.
//  3. swap (cutover:swap): the store holds next, or no longer the class,
//     its portion ledger charges next's base in place of old's, and on a
//     new path the route holds move from old's path to next's.
//  4. retire (cutover:retire): the steering of old's sub-classes that
//     next does not keep is removed where step 1 did not replace it,
//     old's classification if next enters elsewhere, and at each switch
//     of old's path the route the swap left no holder, or re-pointed
//     where old was its oldest holder (assignStore.routeMoves).
//
// Each flow table changes in single ApplyBatch critical sections, so a
// packet meets a table's complete old or complete new rule set. A new
// class has no live assignment: installNew compiles it with steps 1 and 2
// from nothing and applies them in that order, and fires no cutover point.
func (t *RuleTxn) cutover(old, next *Assignment) error {
	c := t.c
	id := old.Class.ID
	if err := t.fail("cutover:steer", id); err != nil {
		return err
	}
	// Each step is compiled behind the ones before it, into one buffer,
	// so the class boundary zeroes all three.
	steps := &c.steps
	steps.makeOps = steps.makeOps[:0]
	var err error
	if next != nil {
		t.fresh = c.assign.unheld(next.Class.Path, t.fresh[:0])
		if steps.makeOps, err = c.makeRules(steps.makeOps, old, next, t.fresh); err != nil {
			return err
		}
		if err := t.applyStep(steps.makeOps, nil); err != nil {
			return err
		}
	}
	if err := t.fail("cutover:cls", id); err != nil {
		return err
	}
	made := len(steps.makeOps)
	if steps.makeOps, err = c.flipRules(steps.makeOps, old, next); err != nil {
		return err
	}
	if err := t.applyStep(steps.makeOps[made:], nil); err != nil {
		return err
	}
	if err := t.fail("cutover:swap", id); err != nil {
		return err
	}
	t.trackPrevAssign(id, old)
	if next != nil {
		c.assign.put(id, next)
	} else {
		c.assign.remove(id)
	}
	if err := t.fail("cutover:retire", id); err != nil {
		return err
	}
	t.moves = c.assign.routeMoves(old, t.moves[:0])
	flipped := len(steps.makeOps)
	steps.makeOps = c.retireRules(steps.makeOps, old, next, t.moves)
	return t.applyStep(steps.makeOps[flipped:], nil)
}

// keepsSteering reports whether sub-class s of next stands as old's does:
// the same path, chain, hop vector, tag and instance row, so its steering
// compiles to the rules already installed. Nothing stands when old or next
// is nil.
func keepsSteering(old, next *Assignment, s int) bool {
	return old != nil && next != nil && s < len(old.subs) && s < len(next.subs) &&
		old.subs[s].tag == next.subs[s].tag &&
		slices.Equal(old.subs[s].hops, next.subs[s].hops) &&
		slices.Equal(old.Instances(s), next.Instances(s)) &&
		slices.Equal(old.Class.Path, next.Class.Path) &&
		old.Class.Chain.Equal(next.Class.Chain)
}

// visits reports whether sub-class s of a processes at switch v. A nil
// assignment visits nothing.
func (a *Assignment) visits(s int, v topology.NodeID) bool {
	if a == nil || s >= len(a.subs) {
		return false
	}
	for _, h := range a.subs[s].hops {
		if a.Class.Path[h] == v {
			return true
		}
	}
	return false
}

// makeRules appends the cutover's make step to out: the route of each
// switch of next's path that fresh marks — the switches whose route next
// is the first to hold, decided by the caller before next is registered —
// then per sub-class of next that old's steering does not serve, its
// steering on each host it visits, behind the removal of old's same-index
// rules on a host old's sub-class visits too. A nil old is a class
// install: no sub-class is kept. The host-match rows the steering leads
// through are New's.
func (c *Controller) makeRules(out []tableOp, old, next *Assignment, fresh []bool) ([]tableOp, error) {
	out, err := c.emitRouting(out, next.Class, fresh)
	if err != nil {
		return out, err
	}
	for s, r := range next.subs {
		if keepsSteering(old, next, s) {
			continue
		}
		if out, err = c.emitVSwitchRules(out, old, next, s, chainRuns(r.hops)); err != nil {
			return out, err
		}
	}
	return out, nil
}

// flipRules appends the cutover's flip to out: next's classification at
// its ingress behind the removal of the class's rules there, or that
// removal alone at old's ingress when next is nil. It appends nothing when
// next's classification is the one installed (sameClassification); a nil
// old, a class install, has none installed.
func (c *Controller) flipRules(out []tableOp, old, next *Assignment) ([]tableOp, error) {
	if next == nil {
		return append(out, tableOp{appleKey(old.Class.Path[0]), flowtable.BatchOp{Remove: fmt.Sprintf("cls-%d", old.Class.ID)}}), nil
	}
	blocks, err := next.classificationBlocks()
	if err != nil {
		return out, err
	}
	if old != nil && sameClassification(old, next, blocks) {
		return out, nil
	}
	return c.emitClassification(out, next, blocks)
}

// sameClassification reports whether next's classification, split into
// blocks, compiles to the rules old installed at the ingress. The rules'
// name and prefixes follow from the class ID, the ingress and the blocks,
// and each sub-class's actions from its tag and the switch of its first
// hop (whose host tag New fixed), so those must agree.
func sameClassification(old, next *Assignment, blocks [][]headerspace.PrefixBlock) bool {
	if old.Class.Path[0] != next.Class.Path[0] || len(old.subs) != len(next.subs) {
		return false
	}
	installed, err := old.classificationBlocks()
	if err != nil || len(installed) != len(blocks) {
		return false
	}
	for s, bs := range blocks {
		if !slices.Equal(installed[s], bs) || old.subs[s].tag != next.subs[s].tag ||
			old.Class.Path[old.subs[s].hops[0]] != next.Class.Path[next.subs[s].hops[0]] {
			return false
		}
	}
	return true
}

// retireRules appends the cutover's retire step to out, run once the
// store holds next: the removal of old's classification when next enters
// at another switch, of the steering of every sub-class of old that next
// does not keep, on each host it visits unless the make step replaced it
// there, and the route moves toward old's destination that the swap left
// (assignStore.routeMoves). Grouped, that is hosts in the order the
// sub-classes first reach them, then switches in path order, so every
// route a packet meets leads on to the destination between any two
// batches.
func (c *Controller) retireRules(out []tableOp, old, next *Assignment, moves []routeMove) []tableOp {
	cl := old.Class
	if next != nil && next.Class.Path[0] != cl.Path[0] {
		out = append(out, tableOp{appleKey(cl.Path[0]), flowtable.BatchOp{Remove: fmt.Sprintf("cls-%d", cl.ID)}})
	}
	last, retired := -1, flowtable.BatchOp{}
	eachRetired(old, next, func(s int, v topology.NodeID) {
		if s != last {
			last, retired.Remove = s, fmt.Sprintf("vsw-%d-%d", cl.ID, s)
		}
		out = append(out, tableOp{steeringKey(v), retired})
	})
	dst := cl.Path[len(cl.Path)-1]
	route := c.switches[dst].route
	for _, m := range moves {
		op := flowtable.BatchOp{Remove: route}
		if !m.retire {
			op.Rule = c.routeRule(dst, c.nbrPort[m.at][m.hop])
		}
		out = append(out, tableOp{routingKey(m.at), op})
	}
	return out
}

// eachRetired calls f with every sub-class s of old that next does not
// keep and every host v it visits that next's sub-class s does not, in
// sub-class order and, within one, in path order. A hop vector never
// decreases and a path never revisits a switch, so the hosts a sub-class
// visits are its distinct hops.
func eachRetired(old, next *Assignment, f func(s int, v topology.NodeID)) {
	for s, r := range old.subs {
		if keepsSteering(old, next, s) {
			continue
		}
		for j, h := range r.hops {
			v := old.Class.Path[h]
			if (j == 0 || h != r.hops[j-1]) && (next == nil || !next.visits(s, v)) {
				f(s, v)
			}
		}
	}
}

// commitRefresh commits refresh k: the installed class keeps its
// sub-class shape and rules, and its assignment is rewritten in place to
// carry the new rate under a new generation number (sameGeneration), so a
// failover spawn computed against the old rate is dropped. The store
// moves the instance-portion ledger's charges with the rate. The two
// words are written under the store's lock, and only the writer reads
// them: Forward, FlowHeader and the enforcement probes read the class's
// path, chain, sub-classes and instances, which stay. The pre-image goes
// in the refresh itself, not in prevAssign. No allocation.
func (t *RuleTxn) commitRefresh(k int) error {
	c := t.c
	r := &t.refreshes[k]
	a, ok := c.assign.get(r.id)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", r.id)
	}
	if err := t.fail("refresh:swap", r.id); err != nil {
		return err
	}
	r.prevRate, r.prevGen = c.assign.refresh(a, r.rate, c.nextGen())
	r.after = int32(len(t.prevOrder))
	t.refreshed = k + 1
	return nil
}
