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
	// skip the full O(switches) table scan — at regional-sharding scale
	// (hundreds of switches × 10^5 classes) the rescan dominated setup.
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
	blocks, _, err := a.classificationBlocks()
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

// emitClassRules compiles an admitted class into staged rule operations in
// install order: routing along the path, host-match at processing
// switches (both skip-if-present: other classes share them), ingress
// classification (remove-then-install), and vSwitch steering per
// sub-class. Pure with respect to controller state — safe to run
// concurrently for different classes.
func (c *Controller) emitClassRules(a *Assignment) ([]stagedOp, error) {
	cl := a.Class
	var ops []stagedOp
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
		ops = append(ops, stagedOp{
			dev: device{node: v}, table: TableRouting,
			op: flowtable.BatchOp{SkipIfPresent: true, Rule: flowtable.Rule{
				Name: routeName, Priority: 10,
				Match:   flowtable.Match{Dst: flowtable.PrefixPtr(dstPrefix(dst))},
				Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: port}},
			}},
		})
	}
	// Host-match rules at processing switches (idempotent).
	for _, sub := range a.Subclasses {
		for _, h := range sub.Hops {
			v := cl.Path[h]
			tag, err := c.alloc.HostTag(v)
			if err != nil {
				return nil, fmt.Errorf("controller: %w", err)
			}
			ops = append(ops, stagedOp{
				dev: device{node: v}, table: TableAPPLE,
				op: flowtable.BatchOp{SkipIfPresent: true, Rule: flowtable.Rule{
					Name: "host-match", Priority: prioHostMatch,
					Match:   flowtable.Match{HostTag: flowtable.U16(tag)},
					Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: PortHost}},
				}},
			})
		}
	}
	// Classification at the ingress, and vSwitch steering everywhere.
	clsOps, err := c.emitClassification(a)
	if err != nil {
		return nil, err
	}
	ops = append(ops, clsOps...)
	for s := range a.Subclasses {
		vswOps, err := c.emitVSwitchRules(a, s)
		if err != nil {
			return nil, err
		}
		ops = append(ops, vswOps...)
	}
	return ops, nil
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
func (a *Assignment) classificationBlocks() ([][]headerspace.PrefixBlock, []float64, error) {
	wsum := 0.0
	for _, w := range a.Weights {
		wsum += w
	}
	if wsum <= 0 {
		return nil, nil, fmt.Errorf("controller: class %d has no positive weight", a.Class.ID)
	}
	norm := make([]float64, len(a.Weights))
	for i, w := range a.Weights {
		norm[i] = w / wsum
	}
	blocks, err := flowtable.SplitPortions(norm, splitBits)
	if err != nil {
		return nil, nil, fmt.Errorf("controller: class %d classification: %w", a.Class.ID, err)
	}
	return blocks, norm, nil
}

// installClassification (re)installs the ingress classification rules of
// a class from its current weights (Table III rows 2–3). The full rule
// set is built before the table is touched, so a bad weight vector or
// tag lookup fails without disturbing the installed rules; only then are
// the class's existing rules swapped for the new ones. The Dynamic
// Handler calls this after reshaping weights.
func (c *Controller) installClassification(a *Assignment) error {
	ops, err := c.emitClassification(a)
	if err != nil {
		return err
	}
	return c.applyStaged(ops)
}

// emitClassification compiles the ingress classification stage into staged
// operations: one removal of the class's existing rules, then the fresh
// rule set from the current weights.
func (c *Controller) emitClassification(a *Assignment) ([]stagedOp, error) {
	ingress := a.Class.Path[0]
	name := fmt.Sprintf("cls-%d", a.Class.ID)
	blocks, _, err := a.classificationBlocks()
	if err != nil {
		return nil, err
	}
	var rules []flowtable.Rule
	for s, bs := range blocks {
		subTag, err := a.tagOf(s)
		if err != nil {
			return nil, err
		}
		prefixes, err := flowtable.SuffixRules(a.Prefix, bs, splitBits)
		if err != nil {
			return nil, fmt.Errorf("controller: class %d: %w", a.Class.ID, err)
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
					return nil, fmt.Errorf("controller: %w", err)
				}
				actions = append(actions,
					flowtable.Action{Type: flowtable.ActSetHostTag, Tag: hostTag},
					flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting})
			}
			rules = append(rules, flowtable.Rule{
				Name:     name,
				Priority: prioClassify,
				Match: flowtable.Match{
					HostTag: flowtable.U16(flowtable.HostTagEmpty),
					Src:     flowtable.PrefixPtr(pfx),
				},
				Actions: actions,
			})
		}
	}
	ops := make([]stagedOp, 0, len(rules)+1)
	ops = append(ops, stagedOp{
		dev: device{node: ingress}, table: TableAPPLE,
		op: flowtable.BatchOp{Remove: name},
	})
	for _, r := range rules {
		ops = append(ops, stagedOp{
			dev: device{node: ingress}, table: TableAPPLE,
			op: flowtable.BatchOp{Rule: r},
		})
	}
	return ops, nil
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
	ops, err := c.emitVSwitchRules(a, s)
	if err != nil {
		return err
	}
	return c.applyStaged(ops)
}

// emitVSwitchRules compiles sub-class s's steering rules into staged
// operations on the visited hosts' steering tables.
func (c *Controller) emitVSwitchRules(a *Assignment, s int) ([]stagedOp, error) {
	sub := a.Subclasses[s]
	subTag, err := a.tagOf(s)
	if err != nil {
		return nil, err
	}
	runs := chainRuns(sub.Hops)
	name := fmt.Sprintf("vsw-%d-%d", a.Class.ID, s)
	var ops []stagedOp
	for ri, r := range runs {
		v := a.Class.Path[r.hop]
		h, ok := c.hosts[v]
		if !ok {
			return nil, fmt.Errorf("controller: class %d needs a host at switch %d", a.Class.ID, v)
		}
		steerDev := device{vswitch: true, node: v}
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
			return nil, fmt.Errorf("controller: %w", err)
		}
		ops = append(ops, stagedOp{
			dev: steerDev, table: host.TableSteering,
			op: flowtable.BatchOp{Rule: flowtable.Rule{
				Name: name, Priority: 10, Match: match(host.UplinkPort),
				Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(firstPort)}},
			}},
		})
		// Chain hops within the host.
		for j := r.start; j < r.end; j++ {
			from, err := portOf(j)
			if err != nil {
				return nil, fmt.Errorf("controller: %w", err)
			}
			to, err := portOf(j + 1)
			if err != nil {
				return nil, fmt.Errorf("controller: %w", err)
			}
			ops = append(ops, stagedOp{
				dev: steerDev, table: host.TableSteering,
				op: flowtable.BatchOp{Rule: flowtable.Rule{
					Name: name, Priority: 10, Match: match(from),
					Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(to)}},
				}},
			})
		}
		// Exit: rewrite the host tag toward the next run (or Fin) and
		// return to the physical network.
		lastPort, err := portOf(r.end)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		nextTag := flowtable.HostTagFin
		if ri+1 < len(runs) {
			nextTag, err = c.alloc.HostTag(a.Class.Path[runs[ri+1].hop])
			if err != nil {
				return nil, fmt.Errorf("controller: %w", err)
			}
		}
		ops = append(ops, stagedOp{
			dev: steerDev, table: host.TableSteering,
			op: flowtable.BatchOp{Rule: flowtable.Rule{
				Name: name, Priority: 10, Match: match(lastPort),
				Actions: []flowtable.Action{
					{Type: flowtable.ActSetHostTag, Tag: nextTag},
					{Type: flowtable.ActForward, Port: int(host.UplinkPort)},
				},
			}},
		})
	}
	return ops, nil
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
