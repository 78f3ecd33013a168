package controller

import (
	"fmt"
	"slices"

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
	txn.reserveUndo()
	txn.open()
	if _, err := c.provisionTo(pl, txn, true); err != nil {
		txn.unwind(err)
		return err
	}
	return txn.Commit(TxnOptions{})
}

// maxActions is the longest action list the Rule Generator builds: a
// classification rule's set-sub-tag, set-host-tag and goto-table.
const maxActions = 3

// actionKey is an action list by value.
type actionKey struct {
	n    int
	acts [maxActions]flowtable.Action
}

// actionMemo interns action lists (Controller.actions).
type actionMemo map[actionKey][]flowtable.Action

// of returns the list equal to acts that every rule carrying it shares: a
// clipped slice, so no append lands in it, that nobody writes — neither
// the tables, which keep the slice they install, nor the controller.
func (m actionMemo) of(acts ...flowtable.Action) []flowtable.Action {
	if len(acts) > maxActions {
		return slices.Clip(slices.Clone(acts))
	}
	k := actionKey{n: len(acts)}
	copy(k.acts[:], acts)
	if list, ok := m[k]; ok {
		return list
	}
	list := make([]flowtable.Action, len(acts))
	copy(list, acts)
	m[k] = list
	return list
}

// buildAssignment constructs the full assignment — capacity expansion,
// instance picks and sub-class tags — without registering it in the store
// or journaling it. The pipeline's admit stage uses it for new classes;
// RuleTxn's update cutover uses it to build the replacement generation
// while the old one is still registered (so global-tag allocation avoids
// the live tags). Nothing is charged to the portion ledger until the
// store holds the assignment (assignStore.put), so a refused class leaves
// nothing to take back.
func (c *Controller) buildAssignment(cl core.Class, subs []core.Subclass, txn *RuleTxn) (*Assignment, error) {
	subs, err := expandForCapacity(cl, subs)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if _, err := ClassPrefix(cl.ID); err != nil {
		return nil, err
	}
	rewrites, err := cl.Chain.RewritesHeader()
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	a := &Assignment{
		Class:  cl,
		subs:   make([]subRecord, 0, len(subs)),
		insts:  make([]vnf.ID, len(subs)*len(cl.Chain)),
		nBase:  uint8(len(subs)),
		Global: rewrites,
	}
	// Assign instances first (least-portion-loaded of the right NF at the
	// right switch), each pick seeing the loads the earlier ones will
	// charge; tags second, since global-tag allocation must avoid
	// conflicts on the exact hosts traversed. A sub-class's record is
	// appended once its tag is drawn, so the next draw avoids it.
	var pending []pendingLoad
	for s, sub := range subs {
		for j, nf := range cl.Chain {
			v := cl.Path[sub.Hops[j]]
			inst, err := c.pickInstance(v, nf, pending)
			if err != nil {
				return nil, fmt.Errorf("controller: class %d sub %d position %d: %w", cl.ID, s, j, err)
			}
			id := inst.ID()
			a.insts[s*len(cl.Chain)+j] = id
			pending = c.addPending(pending, id, cl.RateMbps*sub.Portion)
		}
	}
	for _, sub := range subs {
		tag, err := c.allocSubTagFor(a, sub.Hops, txn)
		if err != nil {
			return nil, err
		}
		a.subs = append(a.subs, subRecord{hops: sub.Hops, portion: sub.Portion, weight: sub.Portion, tag: tag})
	}
	a.gen = c.nextGen()
	a.since = a.gen
	return a, nil
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
	c.tracer.Emit(trace.Ev(trace.KindFlowAdmit).WithClass(int64(cl.ID)).WithVal(int64(len(a.subs))))
	for s, r := range a.subs {
		for j, inst := range a.Instances(s) {
			c.tracer.Emit(trace.Ev(trace.KindFlowPlace).
				WithClass(int64(cl.ID)).WithSub(s).WithPos(j).
				WithNode(int64(cl.Path[r.hops[j]])).
				WithInst(string(inst)))
		}
		c.tracer.Emit(trace.Ev(trace.KindFlowTag).
			WithClass(int64(cl.ID)).WithSub(s).WithVal(int64(r.tag)))
	}
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

// emitRouting appends the class's route toward its destination in the
// routing table of each path switch i with fresh[i] set: the switches
// where the class is the route's first holder (assignStore.unheld).
// Classes to one destination share one route per switch, which forwards to
// the next hop of the oldest of them (routeHold): the class that installed
// it, until a removal re-points it.
func (c *Controller) emitRouting(out []tableOp, cl core.Class, fresh []bool) ([]tableOp, error) {
	dst := cl.Path[len(cl.Path)-1]
	for i, f := range fresh {
		if !f {
			continue
		}
		v := cl.Path[i]
		port := PortDeliver
		if i < len(cl.Path)-1 {
			p, ok := c.nbrPort[v][cl.Path[i+1]]
			if !ok {
				return out, fmt.Errorf("controller: class %d path hop %d-%d is not a link", cl.ID, v, cl.Path[i+1])
			}
			port = p
		}
		out = append(out, tableOp{routingKey(v), flowtable.BatchOp{Rule: c.routeRule(dst, port)}})
	}
	return out, nil
}

// routeRule is the route toward dst that forwards to port.
func (c *Controller) routeRule(dst topology.NodeID, port int) flowtable.Rule {
	return flowtable.Rule{
		Name: c.switches[dst].route, Priority: 10,
		Match:   flowtable.Match{}.WithDst(dstPrefix(dst)),
		Actions: c.actions.of(flowtable.Action{Type: flowtable.ActForward, Port: port}),
	}
}

// pendingLoad is the load an instance will carry once the assignment
// under construction is charged.
type pendingLoad struct {
	id   vnf.ID
	load float64
}

// addPending adds load to id's pending load, which starts from the
// ledger's.
func (c *Controller) addPending(pending []pendingLoad, id vnf.ID, load float64) []pendingLoad {
	for i := range pending {
		if pending[i].id == id {
			pending[i].load += load
			return pending
		}
	}
	return append(pending, pendingLoad{id, c.assign.load(id) + load})
}

// plannedLoad returns id's pending load, or the ledger's when the
// assignment under construction does not charge it.
func (c *Controller) plannedLoad(id vnf.ID, pending []pendingLoad) float64 {
	for _, p := range pending {
		if p.id == id {
			return p.load
		}
	}
	return c.assign.load(id)
}

// pickInstance returns the least-loaded running instance of nf at v,
// counting the pending loads of the assignment under construction.
func (c *Controller) pickInstance(v topology.NodeID, nf policy.NF, pending []pendingLoad) (*vnf.Instance, error) {
	var best *vnf.Instance
	bestLoad := 0.0
	for _, inst := range c.instPool[v][nf] {
		if inst.State() != vnf.StateRunning {
			continue
		}
		if load := c.plannedLoad(inst.ID(), pending); best == nil || load < bestLoad {
			best, bestLoad = inst, load
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
// them onto the address grid: what the flip step compiles, and what
// sameClassification compares.
func (a *Assignment) classificationBlocks() ([][]headerspace.PrefixBlock, error) {
	wsum := 0.0
	for _, r := range a.subs {
		wsum += r.weight
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("controller: class %d has no positive weight", a.Class.ID)
	}
	norm := make([]float64, len(a.subs))
	for i, r := range a.subs {
		norm[i] = r.weight / wsum
	}
	blocks, err := flowtable.SplitPortions(norm, splitBits)
	if err != nil {
		return nil, fmt.Errorf("controller: class %d classification: %w", a.Class.ID, err)
	}
	return blocks, nil
}

// emitClassification appends the ingress classification stage for the
// ingress APPLE table: one removal of the class's existing rules, then the
// fresh rule set from the current weights' split. A sub-class's rules
// share one action list.
func (c *Controller) emitClassification(out []tableOp, a *Assignment, blocks [][]headerspace.PrefixBlock) ([]tableOp, error) {
	ingress := a.Class.Path[0]
	key := appleKey(ingress)
	name := fmt.Sprintf("cls-%d", a.Class.ID)
	out = append(out, tableOp{key, flowtable.BatchOp{Remove: name}})
	for s, bs := range blocks {
		subTag, err := a.tagOf(s)
		if err != nil {
			return out, err
		}
		prefixes, err := flowtable.SuffixRules(a.Prefix(), bs, splitBits)
		if err != nil {
			return out, fmt.Errorf("controller: class %d: %w", a.Class.ID, err)
		}
		if len(prefixes) == 0 {
			continue
		}
		setSub := flowtable.Action{Type: flowtable.ActSetSubTag, Tag: uint16(subTag)}
		var actions []flowtable.Action
		if first := a.Class.Path[a.subs[s].hops[0]]; first == ingress {
			actions = c.actions.of(setSub, flowtable.Action{Type: flowtable.ActForward, Port: PortHost})
		} else {
			actions = c.actions.of(setSub,
				flowtable.Action{Type: flowtable.ActSetHostTag, Tag: c.switches[first].hostTag},
				flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting})
		}
		for _, pfx := range prefixes {
			out = append(out, tableOp{key, flowtable.BatchOp{Rule: flowtable.Rule{
				Name:     name,
				Priority: prioClassify,
				Match:    flowtable.Match{}.WithHostTag(flowtable.HostTagEmpty).WithSrc(pfx),
				Actions:  actions,
			}}})
		}
	}
	return out, nil
}

// tagOf returns the data-plane tag of sub-class s.
func (a *Assignment) tagOf(s int) (uint8, error) {
	if s < 0 || s >= len(a.subs) {
		return 0, fmt.Errorf("controller: class %d has no tag for sub-class %d", a.Class.ID, s)
	}
	return a.subs[s].tag, nil
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

// emitVSwitchRules appends sub-class s of a's steering rules, run by run
// of its hop vector, for the visited hosts' steering tables: at each, the
// removal of old's sub-class s's rules where that visits the host too,
// then the run's rules. A nil old visits nothing.
func (c *Controller) emitVSwitchRules(out []tableOp, old, a *Assignment, s int, runs []chainRun) ([]tableOp, error) {
	subTag, err := a.tagOf(s)
	if err != nil {
		return out, err
	}
	name := fmt.Sprintf("vsw-%d-%d", a.Class.ID, s)
	prefix, row := a.Prefix(), a.Instances(s)
	for ri, r := range runs {
		v := a.Class.Path[r.hop]
		h, ok := c.hosts[v]
		if !ok {
			return out, fmt.Errorf("controller: class %d needs a host at switch %d", a.Class.ID, v)
		}
		key := steeringKey(v)
		if old.visits(s, v) {
			out = append(out, tableOp{key, flowtable.BatchOp{Remove: name}})
		}
		match := func(inPort host.PortID) flowtable.Match {
			m := flowtable.Match{}.WithInPort(int(inPort)).WithSubTag(subTag)
			// Header-rewriting chains (§X): the NAT may already have
			// changed the source address, so steering matches the
			// globally unique tag alone.
			if !a.Global {
				m = m.WithSrc(prefix)
			}
			return m
		}
		portOf := func(j int) (host.PortID, error) {
			return h.PortOf(row[j])
		}
		forward := func(port host.PortID) []flowtable.Action {
			return c.actions.of(flowtable.Action{Type: flowtable.ActForward, Port: int(port)})
		}
		// Entry from the uplink to the first instance of the run.
		firstPort, err := portOf(r.start)
		if err != nil {
			return out, fmt.Errorf("controller: %w", err)
		}
		out = append(out, tableOp{key, flowtable.BatchOp{Rule: flowtable.Rule{
			Name: name, Priority: 10, Match: match(host.UplinkPort),
			Actions: forward(firstPort),
		}}})
		// Chain hops within the host.
		for j := r.start; j < r.end; j++ {
			from, err := portOf(j)
			if err != nil {
				return out, fmt.Errorf("controller: %w", err)
			}
			to, err := portOf(j + 1)
			if err != nil {
				return out, fmt.Errorf("controller: %w", err)
			}
			out = append(out, tableOp{key, flowtable.BatchOp{Rule: flowtable.Rule{
				Name: name, Priority: 10, Match: match(from),
				Actions: forward(to),
			}}})
		}
		// Exit: rewrite the host tag toward the next run (or Fin) and
		// return to the physical network.
		lastPort, err := portOf(r.end)
		if err != nil {
			return out, fmt.Errorf("controller: %w", err)
		}
		nextTag := flowtable.HostTagFin
		if ri+1 < len(runs) {
			nextTag = c.switches[a.Class.Path[runs[ri+1].hop]].hostTag
		}
		out = append(out, tableOp{key, flowtable.BatchOp{Rule: flowtable.Rule{
			Name: name, Priority: 10, Match: match(lastPort),
			Actions: c.actions.of(
				flowtable.Action{Type: flowtable.ActSetHostTag, Tag: nextTag},
				flowtable.Action{Type: flowtable.ActForward, Port: int(host.UplinkPort)}),
		}}})
	}
	return out, nil
}

// expandForCapacity implements §IV-B's load distribution across multiple
// instances: a sub-class whose traffic share exceeds a single instance's
// capacity at some chain position is split into equal slices, so each
// slice can be pinned to a different instance (jumbo classes "whose rates
// are beyond the capacity of any single VNF instance").
func expandForCapacity(cl core.Class, subs []core.Subclass) ([]core.Subclass, error) {
	var out []core.Subclass
	for _, sub := range subs {
		k, err := capacitySlices(cl, sub.Portion)
		if err != nil {
			return nil, err
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
	if err := checkTagBudget(cl.ID, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// capacitySlices is how many equal slices expandForCapacity cuts a
// sub-class carrying portion of cl into: enough that no slice exceeds one
// instance's capacity at any chain position, and at least one.
func capacitySlices(cl core.Class, portion float64) (int, error) {
	share := cl.RateMbps * portion
	k := 1
	for _, nf := range cl.Chain {
		spec, err := policy.SpecOf(nf)
		if err != nil {
			return 0, err
		}
		if need := int(ceilDiv(share, spec.CapacityMbps)); need > k {
			k = need
		}
	}
	return k, nil
}

// checkTagBudget refuses a class expanded into more sub-classes than its
// tag space holds.
func checkTagBudget(id core.ClassID, n int) error {
	if n > globalTagBase {
		return fmt.Errorf("class %d needs %d sub-classes; the per-class tag budget is %d",
			id, n, globalTagBase)
	}
	return nil
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
