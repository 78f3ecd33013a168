package controller

// The class-install pipeline. Every new class — an online arrival
// (StageAdd) or a placement-driven install (StageInstall), committed one
// at a time by RuleTxn.Commit or as a whole AddClassBatch — goes through
// RuleTxn.installNew, in four stages, all on the calling goroutine:
//
//  1. admit (arrival order): validation, sub-class derivation (greedy
//     online planning, or the staged distribution), instance picking,
//     sub-class tag allocation, the switches whose route the class is the
//     first to hold, and registration in the assignment store. Everything
//     whose outcome depends on who came first happens here.
//  2. emit: each admitted class is compiled as a cutover from nothing, by
//     the cutover's own compilers, which append to the run's two steps:
//     its make step (makeRules(out, nil, a, ...): the routes admit found
//     it first to hold, then steering) to the run's make step, and its
//     flip step (flipRules(out, nil, a): the ingress classification) to
//     the run's flip step, each rule written once. The host tags and
//     host-match rows the rules lead through are New's; nothing of the
//     controller is written.
//  3. apply (one batch per device table and step): the make step, then
//     the flip step, so no classification is published before the
//     steering it leads to. Each step is grouped per table as it is
//     applied (ruleSteps.group), which keeps both arrival order and each
//     class's internal order. Each table is installed in one critical
//     section via flowtable.ApplyBatchUndo — the batched-TCAM-update
//     analogue of coalescing per-switch OpenFlow barriers.
//  4. verify (optional): CheckClassEnforcement re-injects probe packets
//     for every admitted class.
//
// Forward and enforcement probes may read the tables from other
// goroutines throughout; the pipeline itself is the one writer.

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// assignStore is the id→assignment map behind one lock: the single
// control-plane writer mutates it while Forward and enforcement probes
// read it from other goroutines. It also keeps the instance-portion
// ledger and the route holds, which follow the class records: put and
// remove are their only writers (but for forget, on the ledger), so
// whatever puts an assignment back — a transaction unwind included — puts
// its charges and holds back too.
type assignStore struct {
	mu sync.RWMutex
	m  map[core.ClassID]*Assignment // guarded by mu
	// portion is the planned load, rate × portion, that the installed base
	// sub-classes put on each instance, for least-loaded selection. An
	// entry stays, near zero, once nothing charges the instance, until
	// the instance leaves the pools (forget). Guarded by mu.
	portion map[vnf.ID]float64
	// held[v][dst] is the route toward dst at switch v as the records
	// derive it (routeHold). One row per switch, indexed by destination
	// and sized by the topology, so a put or remove allocates nothing for
	// it. Guarded by mu.
	held [][]routeHold
	// order is the installed assignments by ascending class ID while
	// ordered is set (sorted). A put that replaces an assignment replaces
	// its pointer here; a put of a new class or a remove clears ordered,
	// and the next sorted walk rebuilds order in place. A store no one
	// walks in class order never builds it. Guarded by mu.
	order   []*Assignment
	ordered bool
}

// routeHold is what the class records make of the route toward one
// destination at one switch: it stands while some installed class
// crosses the switch toward the destination, and forwards to the next
// hop of the oldest of them, the one whose path was installed first
// (Assignment.since). A new class is never older than a route's holders,
// so an install never moves a route; only a removal of its oldest holder
// does. Along any chain of routes the oldest holder only gets older, and
// it crosses every switch its route leads to, so routes never form a
// cycle and never lead into a switch with no route.
type routeHold struct {
	n    int32  // installed classes crossing the switch toward dst
	lead uint32 // the since of the oldest of them
	hop  int32  // its next hop; dst itself at dst
}

// newAssignStore makes an empty store for a topology of n switches.
func newAssignStore(n int) *assignStore {
	holds := make([]routeHold, n*n)
	held := make([][]routeHold, n)
	for v := range held {
		held[v] = holds[v*n : (v+1)*n : (v+1)*n]
	}
	return &assignStore{m: make(map[core.ClassID]*Assignment), portion: make(map[vnf.ID]float64), held: held}
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

// put registers a class's assignment, replacing any existing one: a's
// base sub-classes are charged to the ledger and its path holds its
// routes, then the replaced one's are taken back. An assignment with the
// replaced one's base (sameBase) moves no charge, so a handler reshape and
// its rollback leave the ledger bit-identical; one on the replaced one's
// path since the same install moves no hold.
func (st *assignStore) put(id core.ClassID, a *Assignment) {
	st.mu.Lock()
	old := st.m[id]
	st.m[id] = a
	if !sameBase(old, a) {
		a.charge(st.portion, 1)
		old.charge(st.portion, -1)
	}
	if old == nil || old.since != a.since {
		st.holdLocked(a)
		st.releaseLocked(old)
	}
	switch {
	case old == nil:
		st.ordered = false
	case st.ordered:
		i, _ := slices.BinarySearchFunc(st.order, id, byClassID)
		st.order[i] = a
	}
	st.mu.Unlock()
}

// refresh writes rate and generation gen into installed assignment a and
// returns the rate and generation it held. The ledger moves as put moves
// it for a replacement at the new rate: the new rate's charges first, then
// the old rate's taken back, none if the rate stands. Both words are
// written under the lock; no reader on another goroutine reads either.
func (st *assignStore) refresh(a *Assignment, rate float64, gen uint32) (float64, uint32) {
	st.mu.Lock()
	oldRate, oldGen := a.Class.RateMbps, a.gen
	if rate != oldRate {
		a.chargeAt(st.portion, rate, 1)
		a.chargeAt(st.portion, oldRate, -1)
	}
	a.Class.RateMbps, a.gen = rate, gen
	st.mu.Unlock()
	return oldRate, oldGen
}

// remove deletes a class's assignment and takes back its charges and
// holds.
func (st *assignStore) remove(id core.ClassID) {
	st.mu.Lock()
	a := st.m[id]
	delete(st.m, id)
	a.charge(st.portion, -1)
	st.releaseLocked(a)
	st.ordered = false
	st.mu.Unlock()
}

// unheld appends to fresh, for each switch of path in order, whether no
// installed class crosses it toward path's destination: the switches
// whose route a class on path would be the first to hold.
func (st *assignStore) unheld(path []topology.NodeID, fresh []bool) []bool {
	dst := path[len(path)-1]
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, v := range path {
		fresh = append(fresh, st.held[v][dst].n == 0)
	}
	return fresh
}

// routeMove is one route the retire step changes: the route toward the
// retiring class's destination at switch at is removed, or re-pointed to
// hop.
type routeMove struct {
	at, hop topology.NodeID
	retire  bool
}

// routeMoves appends, for each switch of a's path in path order, what the
// swap that took a out of the store asks of the route there toward a's
// destination: its removal where no installed class crosses the switch
// any more, and where a was the oldest holder, its re-pointing to the
// next hop of the oldest one left, when that differs from a's.
func (st *assignStore) routeMoves(a *Assignment, moves []routeMove) []routeMove {
	path := a.Class.Path
	dst := path[len(path)-1]
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, v := range path {
		r := st.held[v][dst]
		switch {
		case r.n == 0:
			moves = append(moves, routeMove{at: v, retire: true})
		case v != dst && a.since < r.lead && topology.NodeID(r.hop) != path[i+1]:
			moves = append(moves, routeMove{at: v, hop: topology.NodeID(r.hop)})
		}
	}
	return moves
}

// holdLocked adds a to the holds of every switch its path crosses,
// leading each it is older than every holder of. A nil assignment holds
// nothing.
func (st *assignStore) holdLocked(a *Assignment) {
	if a == nil {
		return
	}
	path := a.Class.Path
	dst := path[len(path)-1]
	for i, v := range path {
		r := &st.held[v][dst]
		if r.n == 0 || a.since < r.lead {
			r.lead, r.hop = a.since, int32(path[min(i+1, len(path)-1)])
		}
		r.n++
	}
}

// releaseLocked takes a, no longer in the store, out of the holds of
// every switch its path crosses; where a led and holders remain, the
// oldest of them leads, found by a scan of the store. A nil assignment
// releases nothing.
func (st *assignStore) releaseLocked(a *Assignment) {
	if a == nil {
		return
	}
	path := a.Class.Path
	dst := path[len(path)-1]
	for _, v := range path {
		r := &st.held[v][dst]
		if r.n--; r.n == 0 || r.lead != a.since {
			continue
		}
		r.lead = math.MaxUint32
		for _, b := range st.m {
			p := b.Class.Path
			if i := slices.Index(p, v); i >= 0 && p[len(p)-1] == dst && b.since < r.lead {
				r.lead, r.hop = b.since, int32(p[min(i+1, len(p)-1)])
			}
		}
	}
}

// load returns the planned load the ledger holds for an instance.
func (st *assignStore) load(id vnf.ID) float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.portion[id]
}

// charged returns how many instances the ledger holds an entry for.
func (st *assignStore) charged() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.portion)
}

// portions returns a copy of the ledger.
func (st *assignStore) portions() map[vnf.ID]float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return maps.Clone(st.portion)
}

// forget deletes the ledger entry of an instance leaving the pools, which
// no installed assignment references any more.
func (st *assignStore) forget(id vnf.ID) {
	st.mu.Lock()
	delete(st.portion, id)
	st.mu.Unlock()
}

// charge adds sign × rate × portion of every base sub-class of a to the
// ledger entry of each instance serving it. The Dynamic Handler's
// sub-classes move weight, not plans, and are never charged. A nil
// assignment charges nothing.
func (a *Assignment) charge(ledger map[vnf.ID]float64, sign float64) {
	if a == nil {
		return
	}
	a.chargeAt(ledger, a.Class.RateMbps, sign)
}

// chargeAt is charge at the given rate in place of a's own.
func (a *Assignment) chargeAt(ledger map[vnf.ID]float64, rate, sign float64) {
	for s, r := range a.subs[:a.nBase] {
		for _, id := range a.Instances(s) {
			ledger[id] += sign * rate * r.portion
		}
	}
}

// sameBase reports whether next charges what old does: the same rate,
// and the same base portions served by the same instance rows.
func sameBase(old, next *Assignment) bool {
	if old == nil || next == nil || old.Class.RateMbps != next.Class.RateMbps || old.nBase != next.nBase {
		return false
	}
	for s := range int(old.nBase) {
		if old.subs[s].portion != next.subs[s].portion || !slices.Equal(old.Instances(s), next.Instances(s)) {
			return false
		}
	}
	return true
}

// len returns how many classes are installed.
func (st *assignStore) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// ids returns every installed class ID, sorted.
func (st *assignStore) ids() []core.ClassID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return sortedKeys(st.m)
}

// sorted returns the installed assignments in ascending class order: the
// one walk order of everything that folds over the whole store, so float
// sums come out the same on every run. The slice is the store's own class
// order, rebuilt in place only when a class came or went since the last
// walk, and must not be written. It stays valid, and a walk over it may
// run another ordered walk, until a class comes or goes: a walk must not
// add or remove one. A put that replaces an assignment during a walk
// shows in the entries the walk has yet to reach. Confined to the single
// writer, like the puts that keep the order.
func (st *assignStore) sorted() []*Assignment {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ordered {
		// Room for a quarter more classes, so a store that grows by a few
		// classes a pass rebuilds in place; one that shrank to under half
		// its order drops it.
		order := st.order[:0]
		if n := len(st.m); cap(order) < n || cap(order) > 2*n {
			order = make([]*Assignment, 0, n+n/4)
		} else {
			clear(order[:cap(order)])
		}
		for _, a := range st.m {
			order = append(order, a)
		}
		slices.SortFunc(order, compareClassID)
		st.order, st.ordered = order, true
	}
	return st.order
}

// compareClassID orders assignments by class ID.
func compareClassID(a, b *Assignment) int { return cmp.Compare(a.Class.ID, b.Class.ID) }

// byClassID compares an assignment's class ID with id.
func byClassID(a *Assignment, id core.ClassID) int { return cmp.Compare(a.Class.ID, id) }

// references reports whether any installed assignment routes traffic
// through the instance.
func (st *assignStore) references(id vnf.ID) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, a := range st.m {
		if slices.Contains(a.insts, id) {
			return true
		}
	}
	return false
}

// referencedInto empties set and keys it by the instances the installed
// assignments route traffic through.
func (st *assignStore) referencedInto(set map[vnf.ID]float64) {
	clear(set)
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, a := range st.m {
		for _, id := range a.insts {
			set[id] = 0
		}
	}
}

// globalTags returns the tags the installed header-rewriting sub-classes
// hold on any of hosts, bit t for tag t (Assignment.globalTags).
func (st *assignStore) globalTags(hosts []topology.NodeID) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var set uint64
	for _, a := range st.m {
		set |= a.globalTags(hosts)
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
// must apply: what ruleSteps.group lays out and one ApplyBatch consumes.
type tableBatch struct {
	key tableKey
	ops []flowtable.BatchOp
}

// tableOp is one rule operation and the table it is bound for: what the
// rule compilers append to a step, in emission order.
type tableOp struct {
	key tableKey
	op  flowtable.BatchOp
}

// tableIndex is k's position in ruleSteps.slot: each switch has two
// devices, its TCAM and its host's vSwitch, of two tables each.
func tableIndex(k tableKey) int {
	d := 2 * int(k.dev.node)
	if k.dev.vswitch {
		d++
	}
	return 2*d + k.table
}

// stepCap is the most operations a step buffer may have room for and
// still be kept once a transaction ends: a bulk load or a large
// re-optimization grows its buffers past it, and they are dropped rather
// than held by the controller until the next one.
const stepCap = 128

// ruleSteps is the controller's store for the steps a transaction
// compiles and applies. A step — a cutover's make, flip or retire, or an
// install run's make or flip — is a flat list of table operations in
// emission order, grouped one batch per table only when it is applied
// (group). The buffers are emptied, keeping their capacity, at every
// class boundary of a commit, and when the transaction ends, dropping
// those grown past stepCap. Confined to the single writer.
type ruleSteps struct {
	// makeOps and flipOps are an install run's make and flip steps; a
	// cutover compiles each of its steps into makeOps, behind the ones it
	// applied before, so each holds all it was written until it is
	// emptied.
	makeOps, flipOps []tableOp
	// batches is the step group last laid out, a clipped view of ops
	// each; need counts each one's operations.
	batches []tableBatch
	ops     []flowtable.BatchOp
	need    []int
	// slot is sized by the topology: 1 + the batch of each table
	// (tableIndex) while group runs, 0 otherwise.
	slot []int32
}

// newRuleSteps makes the step store for a topology of n switches.
func newRuleSteps(n int) ruleSteps {
	return ruleSteps{slot: make([]int32, 4*n)}
}

// group lays a step's operations out one batch per table: tables in the
// order the step first reaches them, each table's operations in emission
// order, each batch a clipped view of one reused array. For an install
// run, whose step is every class's in turn, that concatenates the
// classes' batches per table, class-major. What it returns is valid until
// the next group.
func (s *ruleSteps) group(step []tableOp) []tableBatch {
	// The last layout is dead once applied: its views and copies go, so
	// that what is kept of them pins nothing once empty drops one.
	clear(s.batches)
	clear(s.ops)
	s.batches, s.need = s.batches[:0], s.need[:0]
	for _, o := range step {
		i := &s.slot[tableIndex(o.key)]
		if *i == 0 {
			s.batches = append(s.batches, tableBatch{key: o.key})
			s.need = append(s.need, 0)
			*i = int32(len(s.batches))
		}
		s.need[*i-1]++
	}
	s.ops = slices.Grow(s.ops[:0], len(step))[:len(step)]
	at := 0
	for i, n := range s.need {
		s.batches[i].ops = s.ops[at : at : at+n]
		at += n
	}
	for _, o := range step {
		b := &s.batches[s.slot[tableIndex(o.key)]-1]
		b.ops = append(b.ops, o.op)
	}
	for _, b := range s.batches {
		s.slot[tableIndex(b.key)] = 0
	}
	return s.batches
}

// empty empties every step buffer, zeroing what it holds so it pins no
// rule, and drops those with room for more than bound entries.
func (s *ruleSteps) empty(bound int) {
	s.makeOps = reuseUpTo(s.makeOps, bound)
	s.flipOps = reuseUpTo(s.flipOps, bound)
	s.batches = reuseUpTo(s.batches, bound)
	s.ops = reuseUpTo(s.ops, bound)
	s.need = reuseUpTo(s.need, bound)
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

// BatchOptions tunes AddClassBatch.
type BatchOptions struct {
	// Deprecated: ignored; admission runs on the calling goroutine
	// (ROADMAP 7(viii)).
	Workers int
	// Verify runs CheckClassEnforcement for every admitted class as a
	// final stage.
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
	n, err := txn.installNew(txn.staged, opts.Verify)
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
// Failpoints fire and journal events are emitted per class in index order.
func (t *RuleTxn) installNew(ops []txnOp, verify bool) (int, error) {
	c := t.c

	// Stage 1 — admit, sequentially in arrival order.
	t.fresh = t.fresh[:0]
	admitted := emptyWithRoom(t.runAdmitted, len(ops))
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
	t.runAdmitted = admitted
	metrics.FlowSetup.Arrivals.Add(int64(len(admitted)))

	// Stage 2 — emit: each class compiled as a cutover from nothing, its
	// make step appended to the run's make step and its flip to the run's
	// flip.
	if err := t.failEach("add:emit", admitted); err != nil {
		return 0, err
	}
	s, n := &c.steps, len(admitted)
	s.makeOps, s.flipOps = s.makeOps[:0], s.flipOps[:0]
	stagedRules := 0
	fresh := t.fresh
	for i, a := range admitted {
		var err error
		s.makeOps, s.flipOps = roomFor(s.makeOps, i, n), roomFor(s.flipOps, i, n)
		before := len(s.makeOps) + len(s.flipOps)
		hops := len(a.Class.Path)
		if s.makeOps, err = c.makeRules(s.makeOps, nil, a, fresh[:hops]); err != nil {
			return 0, err
		}
		fresh = fresh[hops:]
		if s.flipOps, err = c.flipRules(s.flipOps, nil, a); err != nil {
			return 0, err
		}
		rules := len(s.makeOps) + len(s.flipOps) - before
		stagedRules += rules
		if c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowEmit).
				WithClass(int64(a.Class.ID)).WithVal(int64(rules)))
		}
	}
	metrics.FlowSetup.StagedRules.Add(int64(stagedRules))

	// Stage 3 — make, then flip: each step one batch per device table,
	// preserving arrival-major emission order, each applied in one
	// critical section. No class's classification is published before
	// every class's steering stands.
	if err := t.failEach("add:apply", admitted); err != nil {
		return 0, err
	}
	// Each device programs its own TCAM, so a run's simulated programming
	// time is the makespan: the slowest device's installs (its tables
	// program back to back) times the per-rule latency.
	if t.runPerDevice == nil {
		t.runPerDevice = make(map[device]int)
	}
	perDevice := t.runPerDevice
	clear(perDevice)
	slowest := 0
	tally := func(k tableKey, rules int, err error) {
		perDevice[k.dev] += rules
		slowest = max(slowest, perDevice[k.dev])
		if err == nil && c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowApply).
				WithNode(int64(k.dev.node)).WithVal(int64(rules)))
		}
	}
	err := t.applyStep(s.makeOps, tally)
	if err == nil {
		err = t.applyStep(s.flipOps, tally)
	}
	metrics.FlowSetup.SimInstall.Add(int64(slowest) * int64(c.orch.Latencies().RuleInstall))
	if err != nil {
		return 0, err
	}

	// Stage 4 — verify. Read-only against the data plane.
	if verify {
		if err := t.failEach("add:verify", admitted); err != nil {
			return 0, err
		}
		metrics.FlowSetup.VerifyProbes.Add(int64(len(admitted)))
		for _, a := range admitted {
			if err := c.CheckClassEnforcement(a.Class.ID); err != nil {
				return 0, err
			}
		}
		if c.tracer.Enabled() {
			for _, a := range admitted {
				c.tracer.Emit(trace.Ev(trace.KindFlowVerify).WithClass(int64(a.Class.ID)))
			}
		}
	}
	return len(admitted), admitErr
}

// roomFor returns step, into which the first i classes of an install run
// of n have been compiled, with room for the rest of the run at the size
// per class so far once it cannot hold one more such class: a bulk run's
// step grows about twice, where append's growth by a quarter at a time
// would allocate it about five times over.
func roomFor(step []tableOp, i, n int) []tableOp {
	if per := len(step) / max(i, 1); cap(step)-len(step) < per {
		return slices.Grow(step, (n-i)*per)
	}
	return step
}

// admit runs the sequential stage for one new class. On success the
// instances it provisioned and the class it registered are recorded in
// the transaction, and the switches whose route it is the first to hold
// are marked in t.fresh; the class after it in a run sees it hold them.
// On failure nothing of the class remains — its provisioning is
// cancelled, and nothing was charged to the portion ledger or the route
// holds, which only the store's put moves — so an admission error
// can drop one class from a batch without unwinding the classes before
// it.
func (t *RuleTxn) admit(op txnOp) (*Assignment, error) {
	c := t.c
	cl := op.cl
	if err := cl.Validate(c.g); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if c.assign.has(cl.ID) {
		return nil, fmt.Errorf("controller: class %d already installed", cl.ID)
	}
	// An online add plans its distribution against live headroom; an
	// install brings the one its placement solved.
	dist := op.dist
	var provisioned []vnf.ID
	var err error
	if op.kind == txnAdd {
		if err := t.fail("add:plan", cl.ID); err != nil {
			return nil, err
		}
		if dist, provisioned, err = c.planClass(cl); err != nil {
			c.unwindProvisioned(provisioned, t)
			return nil, err
		}
	} else if err := t.fail("install:plan", cl.ID); err != nil {
		return nil, err
	}
	var a *Assignment
	subs, err := core.Subclasses(cl, dist)
	if err != nil {
		err = fmt.Errorf("controller: %w", err)
	} else if err = t.fail("add:admit", cl.ID); err == nil {
		a, err = c.buildAssignment(cl, subs, t)
	}
	if err != nil {
		c.unwindProvisioned(provisioned, t)
		return nil, err
	}
	t.fresh = c.assign.unheld(cl.Path, t.fresh)
	c.assign.put(cl.ID, a)
	c.journalAdmit(a)
	t.provisioned = append(t.provisioned, provisioned...)
	t.log = append(t.log, storeUndo{id: cl.ID})
	return a, nil
}

// unwindProvisioned cancels instances provisioned for a failed arrival.
func (c *Controller) unwindProvisioned(provisioned []vnf.ID, txn *RuleTxn) {
	for _, id := range provisioned {
		_ = c.orch.Cancel(id)
		c.dropFromPool(id, txn)
	}
}
