package controller

import (
	"fmt"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// splitBits is the sub-class address-split granularity: portions are
// quantized to 1/256 of the class prefix (§V-A's second method).
const splitBits = 8

// InstallPlacement provisions the placement's instances through the
// Resource Orchestrator, derives each class's sub-classes, assigns
// concrete instances, and installs every physical-switch and vSwitch rule
// (the Rule Generator role of §III). It is the proactive path: instances
// are placed synchronously before traffic arrives. The whole install is
// one rule transaction — on any error nothing of it remains.
func (c *Controller) InstallPlacement(prob *core.Problem, pl *core.Placement) error {
	if prob == nil || pl == nil {
		return fmt.Errorf("controller: nil problem or placement")
	}
	txn := c.Begin()
	for _, cl := range prob.Classes {
		// Honor a partial-order chain variant the engine selected; the
		// placement's Dist axes follow the selected chain.
		cl.Chain = pl.ChainFor(cl)
		dist, ok := pl.Dist[cl.ID]
		if !ok {
			return fmt.Errorf("controller: class %d missing from placement", cl.ID)
		}
		txn.StageInstall(cl, dist)
	}
	txn.open()
	if _, err := c.provisionTo(pl, txn, true); err != nil {
		txn.unwind(err)
		return err
	}
	return txn.Commit(TxnOptions{})
}

// ensurePassBy installs the Table III pass-by row on every switch that
// does not have it yet, handing each install's undo token to txn.
func (c *Controller) ensurePassBy(txn *RuleTxn) error {
	// Fast path: once every switch carries the rule, later admissions
	// skip the full O(switches) table scan — on FatTree-16 (320 switches
	// × 10^5 classes) the rescan dominated setup.
	// The flag is cleared on transaction unwind, which is the only path
	// that can ever remove an installed pass-by rule.
	if c.passByDone {
		return nil
	}
	for v, sw := range c.switches {
		t, err := sw.Pipeline.Table(TableAPPLE)
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
		if t.Has("pass-by") {
			continue
		}
		n, undo, err := t.ApplyBatchUndo([]flowtable.BatchOp{{Rule: flowtable.Rule{
			Name: "pass-by", Priority: prioPassBy,
			Actions: []flowtable.Action{{Type: flowtable.ActGotoTable, Table: TableRouting}},
		}}})
		txn.recordUndo(tableKey{dev: device{node: v}, table: TableAPPLE}, undo)
		c.ruleUpdates.Add(int64(n))
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
	}
	c.passByDone = true
	return nil
}

// buildAssignment constructs the full assignment — capacity expansion,
// instance picks, and every tag the class will ever reference: sub-class
// tags and host tags, the latter in the exact first-touch order the rule
// emitter uses — without registering it in the store or journaling it.
// The pipeline's admit stage uses it for new classes; RuleTxn's update
// cutover uses it to build the replacement generation while the old one
// is still registered (so global-tag allocation avoids the live tags).
// Afterwards emitClassRules is a pure function of the assignment and the
// allocator's (now read-only for this class) tag tables. The
// portion-ledger and global-tag writes are recorded in txn, and taken back
// here when the class is refused: a refused class must leave the ledgers as
// it found them even when the transaction goes on without it (AddClassBatch
// keeps the classes admitted before an admission failure).
func (c *Controller) buildAssignment(cl core.Class, subs []core.Subclass, txn *RuleTxn) (*Assignment, error) {
	subs, err := expandForCapacity(cl, subs)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	prefix, err := ClassPrefix(cl.ID)
	if err != nil {
		return nil, err
	}
	rewrites, err := cl.Chain.RewritesHeader()
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	a := &Assignment{
		Class:      cl,
		Prefix:     prefix,
		Subclasses: subs,
		Weights:    core.SubclassPortions(subs),
		Global:     rewrites,
	}
	a.Base = append([]float64(nil), a.Weights...)
	// Assign instances first (least-portion-loaded of the right NF at the
	// right switch); tags second, since global-tag allocation must avoid
	// conflicts on the exact instances traversed.
	a.Instances = make([][]vnf.ID, len(subs))
	var charged []portionCharge
	for s, sub := range subs {
		a.Instances[s] = make([]vnf.ID, len(cl.Chain))
		for j, nf := range cl.Chain {
			v := cl.Path[sub.Hops[j]]
			inst, err := c.pickInstance(v, nf)
			if err != nil {
				c.refuseAssignment(txn, a, charged)
				return nil, fmt.Errorf("controller: class %d sub %d position %d: %w", cl.ID, s, j, err)
			}
			id := inst.ID()
			a.Instances[s][j] = id
			load, present := c.instPortion[id]
			charged = append(charged, portionCharge{id, portionPre{load, present}})
			c.setPortion(txn, id, load+cl.RateMbps*sub.Portion, true)
		}
	}
	for s := range subs {
		tag, err := c.allocSubTagFor(a, subclassHosts(cl, subs[s].Hops), txn)
		if err != nil {
			c.refuseAssignment(txn, a, charged)
			return nil, err
		}
		a.SubTags = append(a.SubTags, tag)
	}
	if err := c.preallocHostTags(a); err != nil {
		c.refuseAssignment(txn, a, charged)
		return nil, err
	}
	return a, nil
}

// portionCharge is one ledger entry buildAssignment charged, with what it
// held before.
type portionCharge struct {
	id  vnf.ID
	pre portionPre
}

// refuseAssignment takes back a half-built assignment's ledger writes,
// newest first, and frees the global tags it marked.
func (c *Controller) refuseAssignment(txn *RuleTxn, a *Assignment, charged []portionCharge) {
	for i := len(charged) - 1; i >= 0; i-- {
		c.setPortion(txn, charged[i].id, charged[i].pre.load, charged[i].pre.present)
	}
	c.releaseSubTags(a, 0, txn)
}

// journalAdmit journals an admitted plan: one admit event, then the
// concrete instance serving every (sub-class, chain position) and the tag
// each sub-class was assigned. Called from the sequential admit stage, so
// a batch journals in arrival order.
func (c *Controller) journalAdmit(a *Assignment) {
	if !c.tracer.Enabled() {
		return
	}
	cl := a.Class
	c.tracer.Emit(trace.Ev(trace.KindFlowAdmit).WithClass(int64(cl.ID)).WithVal(int64(len(a.Subclasses))))
	for s, sub := range a.Subclasses {
		for j := range cl.Chain {
			c.tracer.Emit(trace.Ev(trace.KindFlowPlace).
				WithClass(int64(cl.ID)).WithSub(s).WithPos(j).
				WithNode(int64(cl.Path[sub.Hops[j]])).
				WithInst(string(a.Instances[s][j])))
		}
		c.tracer.Emit(trace.Ev(trace.KindFlowTag).
			WithClass(int64(cl.ID)).WithSub(s).WithVal(int64(a.SubTags[s])))
	}
}

// preallocHostTags touches every host tag the class's rules will carry, in
// the exact order emitClassRules first touches them: host-match targets,
// then classification next-host tags, then vSwitch exit tags per
// sub-class. The allocator memoizes, so repeat touches are no-ops and the
// tag table depends only on arrival order — which is what lets the emit
// stage run in parallel without allocating.
func (c *Controller) preallocHostTags(a *Assignment) error {
	cl := a.Class
	for _, sub := range a.Subclasses {
		for _, h := range sub.Hops {
			if _, err := c.alloc.HostTag(cl.Path[h]); err != nil {
				return fmt.Errorf("controller: %w", err)
			}
		}
	}
	// Classification: a sub-class whose first hop is off-ingress carries a
	// SetHostTag action, but only when it received prefix blocks (zero
	// weights get none).
	blocks, err := a.classificationBlocks()
	if err != nil {
		return err
	}
	ingress := cl.Path[0]
	for s, bs := range blocks {
		if len(bs) == 0 {
			continue
		}
		if first := cl.Path[a.Subclasses[s].Hops[0]]; first != ingress {
			if _, err := c.alloc.HostTag(first); err != nil {
				return fmt.Errorf("controller: %w", err)
			}
		}
	}
	// vSwitch exit rules rewrite the tag toward the next run's switch.
	for s := range a.Subclasses {
		runs := chainRuns(a.Subclasses[s].Hops)
		for ri := 0; ri+1 < len(runs); ri++ {
			if _, err := c.alloc.HostTag(cl.Path[runs[ri+1].hop]); err != nil {
				return fmt.Errorf("controller: %w", err)
			}
		}
	}
	return nil
}

// Table keys of the three kinds of table a class's rules live in.
func routingKey(v topology.NodeID) tableKey {
	return tableKey{dev: device{node: v}, table: TableRouting}
}

func appleKey(v topology.NodeID) tableKey {
	return tableKey{dev: device{node: v}, table: TableAPPLE}
}

func steeringKey(v topology.NodeID) tableKey {
	return tableKey{dev: device{vswitch: true, node: v}, table: host.TableSteering}
}

// emitClassRules compiles an admitted class into one batch per table it
// touches, tables in the order emission first reaches them and, within a
// table, operations in install order: routing along the path, host-match
// at processing switches (both skip-if-present: other classes share them),
// ingress classification (remove-then-install), and vSwitch steering per
// sub-class. A layout pass counts what each table will receive (the
// ingress APPLE table's count is completed when the split is made), so
// every rule is written once into a batch that never regrows. Pure with
// respect to controller state — safe to run concurrently for different
// classes.
func (c *Controller) emitClassRules(a *Assignment) ([]tableBatch, error) {
	cl := a.Class
	ingress := cl.Path[0]
	// Tables touched: routing along the path; the APPLE and steering tables
	// of the processing switches, at most one per hop entry; the ingress
	// APPLE table.
	hops := 0
	for _, sub := range a.Subclasses {
		hops += len(sub.Hops)
	}
	g := newRuleGroups(len(cl.Path) + 2*min(len(cl.Path), hops) + 1)
	for _, v := range cl.Path {
		g.reserve(routingKey(v), 1)
	}
	for _, sub := range a.Subclasses {
		for _, h := range sub.Hops {
			g.reserve(appleKey(cl.Path[h]), 1)
		}
	}
	// The ingress APPLE table takes its place here and its size below,
	// once the split is known.
	g.reserve(appleKey(ingress), 0)
	runs := make([][]chainRun, len(a.Subclasses))
	for s, sub := range a.Subclasses {
		runs[s] = chainRuns(sub.Hops)
		reserveVSwitchRules(g, a, runs[s])
	}

	// Routing along the class path (skip rules already present).
	dst := cl.Path[len(cl.Path)-1]
	routeName := fmt.Sprintf("route-%d", dst)
	for i, v := range cl.Path {
		port := PortDeliver
		if i < len(cl.Path)-1 {
			p, ok := c.nbrPort[v][cl.Path[i+1]]
			if !ok {
				return nil, fmt.Errorf("controller: class %d path hop %d-%d is not a link", cl.ID, v, cl.Path[i+1])
			}
			port = p
		}
		g.add(routingKey(v), flowtable.BatchOp{SkipIfPresent: true, Rule: flowtable.Rule{
			Name: routeName, Priority: 10,
			Match:   flowtable.Match{Dst: flowtable.PrefixPtr(dstPrefix(dst))},
			Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: port}},
		}})
	}
	// Host-match rules at processing switches (idempotent). The ingress's
	// own leads the classification rules in one batch, so it is built here
	// and added below, once that batch is sized.
	var ingressMatch flowtable.BatchOp
	atIngress := 0
	for _, sub := range a.Subclasses {
		for _, h := range sub.Hops {
			op, err := c.hostMatchOp(cl.Path[h])
			if err != nil {
				return nil, err
			}
			if cl.Path[h] == ingress {
				ingressMatch = op
				atIngress++
				continue
			}
			g.add(appleKey(cl.Path[h]), op)
		}
	}
	// The split is made here, between the last host-match rule and the
	// classification rules, and not in the layout pass. Its scratch slices
	// are a few bytes each; Go packs objects that small into shared
	// 16-byte blocks, next to the rules' names and match fields, and a
	// block lives as long as any rule in it. Made ahead of the routing
	// rules, the split left 0.4 MB more of those blocks pinned behind a
	// 41k-class FatTree than it does from here.
	blocks, err := a.classificationBlocks()
	if err != nil {
		return nil, err
	}
	g.reserve(appleKey(ingress), classificationSize(blocks))
	for ; atIngress > 0; atIngress-- {
		g.add(appleKey(ingress), ingressMatch)
	}
	if err := c.emitClassification(g, a, blocks); err != nil {
		return nil, err
	}
	// vSwitch steering everywhere.
	for s := range a.Subclasses {
		if err := c.emitVSwitchRules(g, a, s, runs[s]); err != nil {
			return nil, err
		}
	}
	return g.tables, nil
}

// hostMatchOp is processing switch v's host-match rule.
func (c *Controller) hostMatchOp(v topology.NodeID) (flowtable.BatchOp, error) {
	tag, err := c.alloc.HostTag(v)
	if err != nil {
		return flowtable.BatchOp{}, fmt.Errorf("controller: %w", err)
	}
	return flowtable.BatchOp{SkipIfPresent: true, Rule: flowtable.Rule{
		Name: "host-match", Priority: prioHostMatch,
		Match:   flowtable.Match{HostTag: flowtable.U16(tag)},
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: PortHost}},
	}}, nil
}

// pickInstance returns the least-loaded running instance of nf at v.
func (c *Controller) pickInstance(v topology.NodeID, nf policy.NF) (*vnf.Instance, error) {
	pool := c.instPool[v][nf]
	var best *vnf.Instance
	for _, inst := range pool {
		if inst.State() != vnf.StateRunning {
			continue
		}
		if best == nil || c.instPortion[inst.ID()] < c.instPortion[best.ID()] {
			best = inst
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no running %v instance at switch %d", nf, v)
	}
	return best, nil
}

// install adds a rule to a pipeline table, counting the TCAM update.
func (c *Controller) install(pl *flowtable.Pipeline, table int, r flowtable.Rule) error {
	t, err := pl.Table(table)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	if err := t.Install(r); err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	c.ruleUpdates.Add(1)
	return nil
}

// classificationBlocks normalizes the class's current weights and splits
// them onto the address grid — the shared core of classification emission
// and admit-stage tag preallocation.
func (a *Assignment) classificationBlocks() ([][]headerspace.PrefixBlock, error) {
	wsum := 0.0
	for _, w := range a.Weights {
		wsum += w
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("controller: class %d has no positive weight", a.Class.ID)
	}
	norm := make([]float64, len(a.Weights))
	for i, w := range a.Weights {
		norm[i] = w / wsum
	}
	blocks, err := flowtable.SplitPortions(norm, splitBits)
	if err != nil {
		return nil, fmt.Errorf("controller: class %d classification: %w", a.Class.ID, err)
	}
	return blocks, nil
}

// installClassification (re)installs the ingress classification rules of
// a class from its current weights (Table III rows 2–3). The full rule
// set is built before the table is touched, so a bad weight vector or
// tag lookup fails without disturbing the installed rules; only then are
// the class's existing rules swapped for the new ones. The Dynamic
// Handler calls this after reshaping weights.
func (c *Controller) installClassification(a *Assignment) error {
	blocks, err := a.classificationBlocks()
	if err != nil {
		return err
	}
	g := newRuleGroups(1)
	g.reserve(appleKey(a.Class.Path[0]), classificationSize(blocks))
	if err := c.emitClassification(g, a, blocks); err != nil {
		return err
	}
	return c.applyStaged(g.tables)
}

// classificationSize is how many operations emitClassification adds for
// the given split: the removal, then one rule per prefix block.
func classificationSize(blocks [][]headerspace.PrefixBlock) int {
	n := 1
	for _, bs := range blocks {
		n += len(bs)
	}
	return n
}

// emitClassification compiles the ingress classification stage into the
// ingress APPLE table's batch: one removal of the class's existing rules,
// then the fresh rule set from the current weights' split.
func (c *Controller) emitClassification(g *ruleGroups, a *Assignment, blocks [][]headerspace.PrefixBlock) error {
	ingress := a.Class.Path[0]
	key := appleKey(ingress)
	name := fmt.Sprintf("cls-%d", a.Class.ID)
	g.add(key, flowtable.BatchOp{Remove: name})
	for s, bs := range blocks {
		subTag, err := a.tagOf(s)
		if err != nil {
			return err
		}
		prefixes, err := flowtable.SuffixRules(a.Prefix, bs, splitBits)
		if err != nil {
			return fmt.Errorf("controller: class %d: %w", a.Class.ID, err)
		}
		first := a.Class.Path[a.Subclasses[s].Hops[0]]
		for _, pfx := range prefixes {
			var actions []flowtable.Action
			actions = append(actions, flowtable.Action{Type: flowtable.ActSetSubTag, Tag: uint16(subTag)})
			if first == ingress {
				actions = append(actions, flowtable.Action{Type: flowtable.ActForward, Port: PortHost})
			} else {
				hostTag, err := c.alloc.HostTag(first)
				if err != nil {
					return fmt.Errorf("controller: %w", err)
				}
				actions = append(actions,
					flowtable.Action{Type: flowtable.ActSetHostTag, Tag: hostTag},
					flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting})
			}
			g.add(key, flowtable.BatchOp{Rule: flowtable.Rule{
				Name:     name,
				Priority: prioClassify,
				Match: flowtable.Match{
					HostTag: flowtable.U16(flowtable.HostTagEmpty),
					Src:     flowtable.PrefixPtr(pfx),
				},
				Actions: actions,
			}})
		}
	}
	return nil
}

// tagOf returns the data-plane tag of sub-class s.
func (a *Assignment) tagOf(s int) (uint8, error) {
	if s < 0 || s >= len(a.SubTags) {
		return 0, fmt.Errorf("controller: class %d has no tag for sub-class %d", a.Class.ID, s)
	}
	return a.SubTags[s], nil
}

// chainRun is a maximal group of consecutive chain positions served at
// the same hop (non-decreasing hop vectors make such runs contiguous).
type chainRun struct {
	hop        int
	start, end int // chain positions [start, end]
}

// chainRuns groups a hop vector into runs.
func chainRuns(hops []int) []chainRun {
	var runs []chainRun
	for j := 0; j < len(hops); j++ {
		if len(runs) > 0 && runs[len(runs)-1].hop == hops[j] {
			runs[len(runs)-1].end = j
			continue
		}
		runs = append(runs, chainRun{hop: hops[j], start: j, end: j})
	}
	return runs
}

// installVSwitchRules programs the ⟨InPort, class, sub-class⟩ steering of
// §V-B for sub-class s on every host it visits.
func (c *Controller) installVSwitchRules(a *Assignment, s int) error {
	runs := chainRuns(a.Subclasses[s].Hops)
	g := newRuleGroups(len(runs))
	reserveVSwitchRules(g, a, runs)
	if err := c.emitVSwitchRules(g, a, s, runs); err != nil {
		return err
	}
	return c.applyStaged(g.tables)
}

// reserveVSwitchRules reserves what emitVSwitchRules adds for a sub-class
// with the given runs: per run, the uplink entry, one rule per chain hop
// inside the host, and the exit.
func reserveVSwitchRules(g *ruleGroups, a *Assignment, runs []chainRun) {
	for _, r := range runs {
		g.reserve(steeringKey(a.Class.Path[r.hop]), r.end-r.start+2)
	}
}

// emitVSwitchRules compiles sub-class s's steering rules, run by run of
// its hop vector, into the batches of the visited hosts' steering tables.
func (c *Controller) emitVSwitchRules(g *ruleGroups, a *Assignment, s int, runs []chainRun) error {
	subTag, err := a.tagOf(s)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("vsw-%d-%d", a.Class.ID, s)
	for ri, r := range runs {
		v := a.Class.Path[r.hop]
		h, ok := c.hosts[v]
		if !ok {
			return fmt.Errorf("controller: class %d needs a host at switch %d", a.Class.ID, v)
		}
		key := steeringKey(v)
		match := func(inPort host.PortID) flowtable.Match {
			m := flowtable.Match{
				InPort: flowtable.IntPtr(int(inPort)),
				SubTag: flowtable.U8(subTag),
			}
			// Header-rewriting chains (§X): the NAT may already have
			// changed the source address, so steering matches the
			// globally unique tag alone.
			if !a.Global {
				m.Src = flowtable.PrefixPtr(a.Prefix)
			}
			return m
		}
		portOf := func(j int) (host.PortID, error) {
			return h.PortOf(a.Instances[s][j])
		}
		// Entry from the uplink to the first instance of the run.
		firstPort, err := portOf(r.start)
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
		g.add(key, flowtable.BatchOp{Rule: flowtable.Rule{
			Name: name, Priority: 10, Match: match(host.UplinkPort),
			Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(firstPort)}},
		}})
		// Chain hops within the host.
		for j := r.start; j < r.end; j++ {
			from, err := portOf(j)
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
			to, err := portOf(j + 1)
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
			g.add(key, flowtable.BatchOp{Rule: flowtable.Rule{
				Name: name, Priority: 10, Match: match(from),
				Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(to)}},
			}})
		}
		// Exit: rewrite the host tag toward the next run (or Fin) and
		// return to the physical network.
		lastPort, err := portOf(r.end)
		if err != nil {
			return fmt.Errorf("controller: %w", err)
		}
		nextTag := flowtable.HostTagFin
		if ri+1 < len(runs) {
			nextTag, err = c.alloc.HostTag(a.Class.Path[runs[ri+1].hop])
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
		}
		g.add(key, flowtable.BatchOp{Rule: flowtable.Rule{
			Name: name, Priority: 10, Match: match(lastPort),
			Actions: []flowtable.Action{
				{Type: flowtable.ActSetHostTag, Tag: nextTag},
				{Type: flowtable.ActForward, Port: int(host.UplinkPort)},
			},
		}})
	}
	return nil
}

// removeVSwitchRules deletes sub-class s's steering rules from every
// host its hop vector visits — the inverse of installVSwitchRules, used
// by rollback and unwind paths. Rules missing on a host are fine: a
// partially failed install removes whatever made it in.
func (c *Controller) removeVSwitchRules(a *Assignment, s int) {
	if s < 0 || s >= len(a.Subclasses) {
		return
	}
	name := fmt.Sprintf("vsw-%d-%d", a.Class.ID, s)
	for _, v := range subclassHosts(a.Class, a.Subclasses[s].Hops) {
		h, ok := c.hosts[v]
		if !ok {
			continue
		}
		steer, err := h.VSwitch().Table(host.TableSteering)
		if err != nil {
			continue
		}
		steer.Remove(name)
	}
}

// expandForCapacity implements §IV-B's load distribution across multiple
// instances: a sub-class whose traffic share exceeds a single instance's
// capacity at some chain position is split into equal slices, so each
// slice can be pinned to a different instance (jumbo classes "whose rates
// are beyond the capacity of any single VNF instance").
func expandForCapacity(cl core.Class, subs []core.Subclass) ([]core.Subclass, error) {
	var out []core.Subclass
	for _, sub := range subs {
		share := cl.RateMbps * sub.Portion
		k := 1
		for _, nf := range cl.Chain {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				return nil, err
			}
			if need := int(ceilDiv(share, spec.CapacityMbps)); need > k {
				k = need
			}
		}
		if k <= 1 {
			out = append(out, sub)
			continue
		}
		for i := 0; i < k; i++ {
			out = append(out, core.Subclass{
				Portion: sub.Portion / float64(k),
				Hops:    append([]int(nil), sub.Hops...),
			})
		}
	}
	if len(out) > globalTagBase {
		return nil, fmt.Errorf("class %d needs %d sub-classes; the per-class tag budget is %d",
			cl.ID, len(out), globalTagBase)
	}
	return out, nil
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	n := a / b
	f := float64(int(n))
	if n > f {
		return f + 1
	}
	if f == 0 {
		return 1
	}
	return f
}
