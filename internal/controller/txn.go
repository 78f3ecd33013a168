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
//	             handler reshape commits with the updates). New
//	             classes go through the class-install pipeline
//	             (installNew, setup.go), one class per run. Within
//	             an update, the new rules are installed before the stale
//	             ones are removed, and each flow table changes in a
//	             single ApplyBatch critical section (the copy-on-write
//	             matcher publishes old/new atomically per table).
//	verify     — optional enforcement probes after each class's rules
//	             land; an optional audit hook (CheckInvariants in the
//	             harnesses) runs at every class boundary, proving the
//	             intermediate states are violation-free.
//	unwind     — on any error the transaction reverts every table batch
//	             it applied (newest first, each from the undo token the
//	             batch returned), deletes admitted assignments,
//	             re-registers replaced/removed ones, cancels provisioned
//	             instances, and writes back the pre-transaction value of
//	             every portion and global-tag entry it changed.
//	             Controller state is bit-identical to the
//	             pre-transaction state.
//
// Everything the transaction remembers for that is sized by its own
// delta — the rules its batches added and removed, the ledger entries it
// wrote — never by what is installed.
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
	"slices"
	"strings"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
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
	txnUpdate                   // full rule cutover to a new distribution
	txnRemove                   // class teardown
	txnReshape                  // Dynamic Handler reshape of weights and tail sub-classes
)

// txnOp is one staged class delta.
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

// rateDelta is a staged refresh: class id's assignment is replaced with
// one at rate. It commits in the update phase before staged[at], the op
// staged after it, so deltas commit in the order they were staged.
type rateDelta struct {
	id   core.ClassID
	rate float64
	at   int
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
	// are most of a re-optimization's deltas and need only these 24 bytes.
	refreshes []rateDelta
	// Pre-transaction values of the portion-ledger and global-tag entries
	// the transaction wrote, recorded on first write (setPortion,
	// setGlobalTag).
	prevPortion map[vnf.ID]portionPre
	prevTags    map[hostTag]bool
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
	// One install-pipeline run's admitted assignments, their emitted
	// batches and the rules installed per device (installNew).
	runAdmitted  []*Assignment
	runEmitted   [][]tableBatch
	runPerDevice map[device]int
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
	s.refreshes = reuse(s.refreshes)
	s.prevPortion = reuseMap(s.prevPortion)
	s.prevTags = reuseMap(s.prevTags)
	s.prevPools = reuseMap(s.prevPools)
	s.undo = reuse(s.undo)
	s.admitted = reuse(s.admitted)
	s.prevAssign = reuseMap(s.prevAssign)
	s.prevOrder = reuse(s.prevOrder)
	s.provisioned = reuse(s.provisioned)
	s.runAdmitted = reuse(s.runAdmitted)
	s.runEmitted = reuse(s.runEmitted)
	s.runPerDevice = reuseMap(s.runPerDevice)
}

// reuse empties s, zeroing what it held so a kept buffer pins nothing of
// the transaction, or drops it if it has room for more than scratchCap
// entries.
func reuse[S ~[]E, E any](s S) S {
	if cap(s) > scratchCap {
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
// pre-images of installed classes, for callers that know what they are
// about to stage. It is called before anything is staged.
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

// StageUpdate stages a full cutover of an installed class to a new
// distribution: new steering and classification rules are installed
// before the stale ones are removed (make-before-break).
func (t *RuleTxn) StageUpdate(cl core.Class, dist [][]float64) {
	t.staged = append(t.staged, txnOp{kind: txnUpdate, cl: cl, dist: dist})
}

// StageRefresh stages a bookkeeping-only rate change for installed class
// id, whose rule set is unchanged: the assignment is replaced with one
// carrying the new rate and the instance-portion ledger is retargeted,
// but no flow table is touched.
func (t *RuleTxn) StageRefresh(id core.ClassID, rate float64) {
	t.refreshes = append(t.refreshes, rateDelta{id: id, rate: rate, at: len(t.staged)})
}

// StageRemove stages a class teardown: classification first (new packets
// stop matching), steering after, shared rules left in place.
func (t *RuleTxn) StageRemove(id core.ClassID) {
	t.staged = append(t.staged, txnOp{kind: txnRemove, id: id})
}

// stageReshape stages a Dynamic Handler reshape: next is a reshaped
// Assignment.clone of an installed class's live assignment.
func (t *RuleTxn) stageReshape(next *Assignment) {
	t.staged = append(t.staged, txnOp{kind: txnReshape, next: next})
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
	// audited completes one class delta: the rule groups it emitted are
	// dead, and the audit runs once it stands.
	audited := func(err error) error {
		t.c.arena.reset()
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
			for ; ph.refreshes && r < len(t.refreshes) && t.refreshes[r].at == i; r++ {
				if err = audited(t.commitRefresh(t.refreshes[r])); err != nil {
					return err
				}
			}
			if i == len(t.staged) || !ph.want(t.staged[i].kind) {
				continue
			}
			switch op := t.staged[i]; op.kind {
			case txnAdd, txnInstall:
				// One pipeline run per class keeps the per-class audit
				// boundary.
				_, err = t.installNew(t.staged[i:i+1], opts.Verify)
			case txnUpdate:
				err = t.commitUpdate(op, opts)
			case txnReshape:
				err = t.commitReshape(op)
			case txnRemove:
				err = t.commitRemove(op)
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

// release ends the transaction's hold on its buffers: the rule arena is
// reset, and the buffer set is cleared and becomes the controller's spare
// set, unless another transaction's set got there first.
func (t *RuleTxn) release() {
	t.c.arena.reset()
	t.txnScratch.reset()
	if t.c.spare == nil {
		t.c.spare = t.txnScratch
	}
	t.txnScratch = nil
}

// unwind restores the controller to its pre-transaction state: table
// batches reverted newest first, admitted classes out of the store,
// replaced/removed classes back in, re-bucketed pools restored,
// provisioned instances cancelled and de-pooled, and every written portion
// and global-tag entry set back to its recorded value.
func (t *RuleTxn) unwind(cause error) {
	t.finished = true
	c := t.c
	restored := make(map[tableKey]bool)
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if tbl, err := c.deviceTable(u.key.dev, u.key.table); err == nil {
			tbl.Revert(u.token)
			restored[u.key] = true
		}
	}
	for i := len(t.admitted) - 1; i >= 0; i-- {
		c.assign.remove(t.admitted[i])
	}
	for i := len(t.prevOrder) - 1; i >= 0; i-- {
		id := t.prevOrder[i]
		c.assign.put(id, t.prevAssign[id])
	}
	for v, pre := range t.prevPools {
		c.instPool[v] = pre
	}
	for _, id := range t.provisioned {
		_ = c.orch.Cancel(id)
		c.dropFromPool(id, nil)
	}
	for id, pre := range t.prevPortion {
		c.setPortion(nil, id, pre.load, pre.present)
	}
	for ht, on := range t.prevTags {
		c.setGlobalTag(nil, ht.host, ht.tag, on)
	}
	// Reverting may have removed pass-by rules installed during this
	// transaction; force the next admission to re-verify them.
	c.passByDone = false
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

// recordUndo keeps a batch's undo token for unwind and accounts the
// rules the batch removed.
func (t *RuleTxn) recordUndo(k tableKey, u flowtable.Undo) {
	t.undo = append(t.undo, tableUndo{key: k, token: u})
	t.removed += u.Removed()
}

// applyEach applies batches in order, one table at a time.
func (t *RuleTxn) applyEach(batches []tableBatch) error {
	for _, b := range batches {
		if _, err := t.apply(b.key, b.ops); err != nil {
			return err
		}
	}
	return nil
}

// apply runs one batch against one table in a single critical section,
// keeping its undo token and accounting installed rules, and returns how
// many rules it installed. The token is kept on error too: a failed batch
// leaves its earlier operations applied, and the unwind needs that token.
// The ordered make-before-break steps of an update or removal, and the
// install pipeline's apply stage, are sequences of these.
func (t *RuleTxn) apply(k tableKey, batch []flowtable.BatchOp) (int, error) {
	tbl, err := t.c.deviceTable(k.dev, k.table)
	if err != nil {
		return 0, err
	}
	n, undo, err := tbl.ApplyBatchUndo(batch)
	t.recordUndo(k, undo)
	t.installed += n
	t.c.ruleUpdates.Add(int64(n))
	if err != nil {
		return n, fmt.Errorf("controller: %w", err)
	}
	return n, nil
}

// portionPre is the pre-transaction state of one portion-ledger entry.
type portionPre struct {
	load    float64
	present bool
}

// hostTag names one global sub-class tag on one hosting switch.
type hostTag struct {
	host topology.NodeID
	tag  uint8
}

// setPortion writes (or, with present false, deletes) one entry of the
// instance-portion ledger. Inside a transaction the entry's prior state
// is recorded the first time it is written, so unwind can put it back
// exactly; txn is nil only after a commit — reaping idle instances,
// cancelling a rolled-back failover's launches — and during the unwind
// itself.
func (c *Controller) setPortion(txn *RuleTxn, id vnf.ID, load float64, present bool) {
	if txn != nil {
		if _, seen := txn.prevPortion[id]; !seen {
			if txn.prevPortion == nil {
				txn.prevPortion = make(map[vnf.ID]portionPre)
			}
			old, had := c.instPortion[id]
			txn.prevPortion[id] = portionPre{load: old, present: had}
		}
	}
	if present {
		c.instPortion[id] = load
	} else {
		delete(c.instPortion, id)
	}
}

// setGlobalTag marks a global sub-class tag used or free on one hosting
// switch, with the same first-write recording as setPortion. A host's
// tag set exists exactly while it holds a tag, so freeing what was marked
// restores the map as it was.
func (c *Controller) setGlobalTag(txn *RuleTxn, v topology.NodeID, tag uint8, on bool) {
	if txn != nil {
		k := hostTag{host: v, tag: tag}
		if _, seen := txn.prevTags[k]; !seen {
			if txn.prevTags == nil {
				txn.prevTags = make(map[hostTag]bool)
			}
			txn.prevTags[k] = c.hostGlobalTags[v][tag]
		}
	}
	if !on {
		delete(c.hostGlobalTags[v], tag)
		if len(c.hostGlobalTags[v]) == 0 {
			delete(c.hostGlobalTags, v)
		}
		return
	}
	if c.hostGlobalTags[v] == nil {
		c.hostGlobalTags[v] = make(map[uint8]bool)
	}
	c.hostGlobalTags[v][tag] = true
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

// ownedNames are the rule names one class owns outright: its ingress
// classification and its per-sub-class steering. Shared idempotent rules
// (route-*, host-match, pass-by) are never the class's to remove — other
// classes may depend on them.
type ownedNames struct {
	cls       string // cls-<id>
	vswPrefix string // vsw-<id>-
}

func ownedBy(id core.ClassID) ownedNames {
	return ownedNames{cls: fmt.Sprintf("cls-%d", id), vswPrefix: fmt.Sprintf("vsw-%d-", id)}
}

func (o ownedNames) owns(name string) bool {
	return name == o.cls || strings.HasPrefix(name, o.vswPrefix)
}

// removals appends to out one remove operation per class-owned rule name
// in one table's ops, in first-appearance order. The operations on one
// name are emitted together, so a name is new when it is not the one
// appended last.
func (o ownedNames) removals(out, ops []flowtable.BatchOp) []flowtable.BatchOp {
	for _, op := range ops {
		name := op.Rule.Name
		if op.Remove != "" {
			name = op.Remove
		}
		if !o.owns(name) || (len(out) > 0 && out[len(out)-1].Remove == name) {
			continue
		}
		out = append(out, flowtable.BatchOp{Remove: name})
	}
	return out
}

// commitUpdate cuts an installed class over to a new distribution with
// zero transient violations:
//
//  1. shared adds and changed steering tables swap first — each table's
//     old steering rules are removed and the new ones installed in one
//     ApplyBatch (packets in flight match either the complete old or the
//     complete new rule set of that table, never a mix);
//  2. the ingress classification flips (its emitted batch is already
//     remove-then-install);
//  3. the store pointer swaps to the new assignment;
//  4. tables only the old placement used are cleaned of the class's
//     rules, old global tags are released and old portions retired.
//
// Tables whose old and new rule groups compile identically are skipped —
// this is what makes rules-touched proportional to drift.
func (t *RuleTxn) commitUpdate(op txnOp, opts TxnOptions) error {
	c := t.c
	cl := op.cl
	old, ok := c.assign.get(cl.ID)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", cl.ID)
	}
	if err := t.fail("update:plan", cl.ID); err != nil {
		return err
	}
	subs, err := core.Subclasses(cl, op.dist)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	if err := c.ensurePassBy(t); err != nil {
		return err
	}
	if err := t.fail("update:build", cl.ID); err != nil {
		return err
	}
	// Build the replacement assignment without registering it. Old global
	// tags are still registered, so a global class draws fresh,
	// non-conflicting tags; portions double-count old+new until retire —
	// the capacity a make-before-break window genuinely holds.
	newA, err := c.buildAssignment(cl, subs, t)
	if err != nil {
		return err
	}
	oldG, err := c.emitClassRules(old)
	if err != nil {
		return err
	}
	newG, err := c.emitClassRules(newA)
	if err != nil {
		return err
	}
	owned := ownedBy(old.Class.ID)
	clsKey := appleKey(cl.Path[0])

	// Phase 1: shared adds and changed steering tables, new rules in the
	// same batch that drops that table's old generation.
	if err := t.fail("update:steer", cl.ID); err != nil {
		return err
	}
	var clsBatch []flowtable.BatchOp
	for _, nb := range newG {
		oldOps, _ := findBatch(oldG, nb.key)
		if flowtable.BatchEqual(oldOps, nb.ops) {
			continue // identical compilation — untouched
		}
		// At most one removal per old operation and per owned name.
		drops := min(len(oldOps), len(old.subs)+1)
		batch := c.arena.batch(drops + len(nb.ops))
		batch = append(owned.removals(batch, oldOps), nb.ops...)
		if nb.key == clsKey {
			clsBatch = batch
			continue
		}
		if _, err := t.apply(nb.key, batch); err != nil {
			return err
		}
	}
	// Phase 2: ingress classification flip.
	if clsBatch != nil {
		if err := t.fail("update:cls", cl.ID); err != nil {
			return err
		}
		if _, err := t.apply(clsKey, clsBatch); err != nil {
			return err
		}
	}
	// Phase 3: swap the control-plane view.
	if err := t.fail("update:swap", cl.ID); err != nil {
		return err
	}
	t.trackPrevAssign(cl.ID, old)
	c.assign.put(cl.ID, newA)
	c.journalAdmit(newA)
	// Phase 4: retire the old generation — tables the new placement no
	// longer touches, old global tags, old portions.
	if err := t.fail("update:retire", cl.ID); err != nil {
		return err
	}
	for _, ob := range oldG {
		if _, inNew := findBatch(newG, ob.key); inNew {
			continue
		}
		drops := min(len(ob.ops), len(old.subs)+1)
		if batch := owned.removals(c.arena.batch(drops), ob.ops); len(batch) > 0 {
			if _, err := t.apply(ob.key, batch); err != nil {
				return err
			}
		}
	}
	c.releaseSubTags(old, 0, t)
	c.shiftPortions(t, old, -1)
	if opts.Verify {
		if err := t.fail("update:verify", cl.ID); err != nil {
			return err
		}
		metrics.FlowSetup.VerifyProbes.Add(1)
		if err := c.CheckClassEnforcement(cl.ID); err != nil {
			return err
		}
		if c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowVerify).WithClass(int64(cl.ID)))
		}
	}
	return nil
}

// commitRefresh replaces an installed class's assignment with one
// carrying a new rate but the same sub-class shape: no rules move, only
// the store entry and the instance-portion ledger. The replacement is the
// installed assignment at the new rate under a new generation number
// (sameGeneration), so a failover spawn computed against the old rate is
// dropped. It shares every array with the one it replaces, the sub-class
// records included: their weights are only ever written on an
// Assignment.clone. One allocation, the replacement itself.
func (t *RuleTxn) commitRefresh(r rateDelta) error {
	c := t.c
	old, ok := c.assign.get(r.id)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", r.id)
	}
	if err := t.fail("refresh:swap", r.id); err != nil {
		return err
	}
	newA := *old
	newA.Class.RateMbps = r.rate
	newA.gen = c.nextGen()
	t.trackPrevAssign(r.id, old)
	c.assign.put(r.id, &newA)
	c.shiftPortions(t, old, -1)
	c.shiftPortions(t, &newA, +1)
	return nil
}

// commitRemove tears one class down: classification first (arriving
// packets stop matching), steering after, shared rules untouched. The
// class-owned names and the tables holding them follow from the assignment
// alone — cls-<id> at the ingress, vsw-<id>-<s> on every host sub-class s
// visits, handler-added sub-classes included — so nothing is compiled.
func (t *RuleTxn) commitRemove(op txnOp) error {
	c := t.c
	a, ok := c.assign.get(op.id)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", op.id)
	}
	if err := t.fail("remove:emit", op.id); err != nil {
		return err
	}
	steer := c.steeringRemovals(a, 0)
	if err := t.fail("remove:cls", op.id); err != nil {
		return err
	}
	clsBatch := []flowtable.BatchOp{{Remove: fmt.Sprintf("cls-%d", a.Class.ID)}}
	if _, err := t.apply(appleKey(a.Class.Path[0]), clsBatch); err != nil {
		return err
	}
	if err := t.fail("remove:steer", op.id); err != nil {
		return err
	}
	if err := t.applyEach(steer); err != nil {
		return err
	}
	if err := t.fail("remove:unregister", op.id); err != nil {
		return err
	}
	t.trackPrevAssign(op.id, a)
	c.assign.remove(op.id)
	c.releaseSubTags(a, 0, t)
	c.shiftPortions(t, a, -1)
	return nil
}

// steeringRemovals removes the steering of a's sub-classes from index
// from on: vsw-<id>-<s> on every host sub-class s visits, one batch per
// host, hosts in the order the sub-classes first reach them. Each visits
// at most one host per chain position, so nothing to drop allocates none.
// A hop vector never decreases and a path never revisits a switch, so
// the hosts a sub-class visits are its distinct hops, in order: one
// removal is reserved per visit, then added.
func (c *Controller) steeringRemovals(a *Assignment, from int) []tableBatch {
	steer := c.arena.groups(min(len(a.Class.Path), max(0, len(a.subs)-from)*len(a.Class.Chain)))
	for s := from; s < len(a.subs); s++ {
		hops := a.subs[s].hops
		for j, h := range hops {
			if j == 0 || h != hops[j-1] {
				steer.reserve(steeringKey(a.Class.Path[h]), 1)
			}
		}
	}
	for s := from; s < len(a.subs); s++ {
		remove := flowtable.BatchOp{Remove: fmt.Sprintf("vsw-%d-%d", a.Class.ID, s)}
		hops := a.subs[s].hops
		for j, h := range hops {
			if j == 0 || h != hops[j-1] {
				steer.add(steeringKey(a.Class.Path[h]), remove)
			}
		}
	}
	return steer.tables
}

// commitReshape commits a Dynamic Handler reshape make-before-break. The
// staged assignment keeps the live one's sub-classes but for the tail an
// overload or activation appends and a rollback drops: steering of added
// sub-classes first, then the classification flip (remove-then-install)
// and the store swap, then retiring the dropped sub-classes' steering and
// global tags. No other rule of the class is emitted.
func (t *RuleTxn) commitReshape(op txnOp) error {
	c := t.c
	next := op.next
	id := next.Class.ID
	old, ok := c.assign.get(id)
	if !ok {
		return fmt.Errorf("controller: class %d is not installed", id)
	}
	if err := t.fail("reshape:steer", id); err != nil {
		return err
	}
	steer := c.arena.groups(max(0, len(next.subs)-len(old.subs)))
	for s := len(old.subs); s < len(next.subs); s++ {
		if err := c.emitVSwitchRules(steer, next, s, chainRuns(next.subs[s].hops)); err != nil {
			return err
		}
	}
	if err := t.applyEach(steer.tables); err != nil {
		return err
	}
	if err := t.fail("reshape:cls", id); err != nil {
		return err
	}
	blocks, err := next.classificationBlocks()
	if err != nil {
		return err
	}
	cls := c.arena.groups(1)
	cls.reserve(appleKey(next.Class.Path[0]), classificationSize(blocks))
	if err := c.emitClassification(cls, next, blocks); err != nil {
		return err
	}
	if err := t.applyEach(cls.tables); err != nil {
		return err
	}
	if err := t.fail("reshape:swap", id); err != nil {
		return err
	}
	t.trackPrevAssign(id, old)
	c.assign.put(id, next)
	if err := t.fail("reshape:retire", id); err != nil {
		return err
	}
	if err := t.applyEach(c.steeringRemovals(old, len(next.subs))); err != nil {
		return err
	}
	c.releaseSubTags(old, len(next.subs), t)
	return nil
}

// shiftPortions adds (sign +1) or retires (sign -1) an assignment's
// per-instance planned load in the portion ledger.
func (c *Controller) shiftPortions(txn *RuleTxn, a *Assignment, sign float64) {
	for s, r := range a.subs {
		for _, id := range a.Instances(s) {
			c.setPortion(txn, id, c.instPortion[id]+sign*a.Class.RateMbps*r.portion, true)
		}
	}
}
