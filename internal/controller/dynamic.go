package controller

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Dynamic Handler counter names (metrics.Counters keys).
const (
	CtrSpawns            = "spawns"
	CtrActivations       = "activations"
	CtrStaleActivations  = "stale_activations"
	CtrSpawnAborts       = "spawn_aborts"
	CtrSpawnFailures     = "spawn_failures"
	CtrActivationUnwinds = "activation_unwinds"
	CtrRollbacks         = "rollbacks"
	CtrZombieCancels     = "zombie_cancels"
	CtrZombiesReaped     = "zombies_reaped"
	CtrSpawnAdoptions    = "spawn_adoptions"
)

// Loads computes the offered load every instance would see given
// per-class traffic rates (Mbps), using the current sub-class weights,
// into a map of the caller's. Like LossRate it is the writer's: it walks
// the store's class order.
func (c *Controller) Loads(rates map[core.ClassID]float64) map[vnf.ID]float64 {
	// The portion ledger has an entry per instance a base sub-class
	// charges: about the size the result is about to have.
	out := make(map[vnf.ID]float64, c.assign.charged())
	c.loadsInto(out, rates)
	return out
}

// loadsInto recomputes Loads into out, discarding what it held. Classes
// contribute in ascending ID order, so each instance's sum is accumulated
// in the same order — and comes out bit-identical — on every run.
func (c *Controller) loadsInto(out map[vnf.ID]float64, rates map[core.ClassID]float64) {
	clear(out)
	for _, a := range c.assign.sorted() {
		a.eachShare(a.rateUnder(rates), func(s int, share float64) {
			for _, inst := range a.Instances(s) {
				out[inst] += share
			}
		})
	}
}

// rateUnder returns the class's rate (Mbps) under rates, its planned rate
// when rates does not name it.
func (a *Assignment) rateUnder(rates map[core.ClassID]float64) float64 {
	if rate, ok := rates[a.Class.ID]; ok {
		return rate
	}
	return a.Class.RateMbps
}

// eachShare calls f with every sub-class and the share of rate it carries,
// rate × weight ÷ Σweight. A class with no weight carries nothing.
func (a *Assignment) eachShare(rate float64, f func(s int, share float64)) {
	total := 0.0
	for _, r := range a.subs {
		total += r.weight
	}
	if total <= 0 {
		return
	}
	for s, r := range a.subs {
		f(s, rate*r.weight/total)
	}
}

// hopWindow returns the path hops chain position j of sub-class s can be
// served at without breaking chain order: from the hop of position j-1 to
// that of position j+1, or to the path's ends at the chain's ends.
func (a *Assignment) hopWindow(s, j int) (lo, hi int) {
	hops := a.subs[s].hops
	lo, hi = 0, len(a.Class.Path)-1
	if j > 0 {
		lo = hops[j-1]
	}
	if j+1 < len(hops) {
		hi = hops[j+1]
	}
	return lo, hi
}

// ApplyLoads pushes computed loads onto the instances (zero for
// instances with no assigned traffic) so loss rates and utilization
// reflect the current snapshot.
func (c *Controller) ApplyLoads(loads map[vnf.ID]float64) error {
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				if err := inst.SetOffered(loads[inst.ID()]); err != nil {
					return fmt.Errorf("controller: %w", err)
				}
			}
		}
	}
	return nil
}

// LossRate returns the traffic-weighted packet loss across all classes
// for the given rates: each instance drops its overload excess, and a
// sub-class's loss is the max over its chain (fluid approximation).
func (c *Controller) LossRate(rates map[core.ClassID]float64) (float64, error) {
	loads := c.instScratch()
	c.loadsInto(loads, rates)
	if err := c.ApplyLoads(loads); err != nil {
		return 0, err
	}
	// Applied, the loads are done with: the map takes each pooled
	// instance's loss in their place.
	lossByInst := loads
	clear(lossByInst)
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				lossByInst[inst.ID()] = inst.LossRate()
			}
		}
	}
	totalRate, totalLost := 0.0, 0.0
	for _, a := range c.assign.sorted() {
		a.eachShare(a.rateUnder(rates), func(s int, share float64) {
			worst := 0.0
			for _, inst := range a.Instances(s) {
				if l := lossByInst[inst]; l > worst {
					worst = l
				}
			}
			totalRate += share
			totalLost += share * worst
		})
	}
	if totalRate == 0 {
		return 0, nil
	}
	return totalLost / totalRate, nil
}

// DynamicHandler reacts to overload notifications with the §VI fast
// failover: halve the weight of sub-classes traversing the overloaded
// instance, spread the freed half onto the least-loaded sibling
// sub-classes with headroom, and when nothing can absorb it, bring up a
// new ClickOS instance and a new sub-class. When the instance recovers,
// everything rolls back and spawned instances are cancelled.
//
// Every transition — an overload, a spawn activation, a rollback — commits
// a reshaped clone of the live assignment through one RuleTxn, so a
// failure unwinds all of it, and CheckInvariants can be asserted between
// any two events.
//
// The overload detectors live on the instances. The handler holds what it
// alone knows: its failover ledger, the classes in failover and the spawn
// slots in flight.
type DynamicHandler struct {
	c *Controller
	// states holds the classes in failover, each with the instances
	// launched for it, to cancel on rollback. Confined to the simulation
	// loop.
	states map[core.ClassID][]vnf.ID
	// pending guards against spawning more than one failover instance per
	// (switch, NF) at a time — Fig 4 shows one new ClickOS VM per
	// overload, and the paper reports <17 additional cores in total. The
	// value is the instance provisioning for the slot; the orchestrator's
	// exactly-one-callback contract guarantees the slot is released.
	// It is confined to the simulation loop.
	pending map[spawnKey]vnf.ID
	// launches is the failover ledger: one record per launched instance
	// whose cores are still held, in service or a zombie. Re-pinning
	// avoids its instances because they are cancelled on their owner
	// class's rollback. Confined to the simulation loop.
	launches  map[vnf.ID]launch
	peakExtra int // confined to the simulation loop
	counters  *metrics.Counters
}

// launch is the ledger record of one failover launch: the cores it holds,
// the switch it was launched at, whether its activation committed (pooling
// it there), and whether its Cancel RPC was lost — a zombie is out of
// service but holds its cores until a retried cancel succeeds.
type launch struct {
	cores     int
	sw        topology.NodeID
	activated bool
	zombie    bool
}

// NewDynamicHandler attaches a handler to the controller. Observe runs the
// hysteresis detector every pooled instance carries (thresholds per
// §VII-B, vnf.DefaultDetector). A controller takes one handler: two would
// share those detectors, each feeding them every snapshot.
func NewDynamicHandler(c *Controller) (*DynamicHandler, error) {
	if c == nil {
		return nil, errors.New("controller: nil controller")
	}
	return &DynamicHandler{
		c:        c,
		states:   make(map[core.ClassID][]vnf.ID),
		pending:  make(map[spawnKey]vnf.ID),
		launches: make(map[vnf.ID]launch),
		counters: metrics.NewCounters(),
	}, nil
}

// PeakExtraCores reports the maximum cores ever concurrently dedicated to
// failover instances.
func (d *DynamicHandler) PeakExtraCores() int { return d.peakExtra }

// ExtraCores reports the cores currently dedicated to failover instances
// (the paper's Fig 12 metric is the average of this over the replay).
func (d *DynamicHandler) ExtraCores() int {
	sum := 0
	for _, l := range d.launches {
		sum += l.cores
	}
	return sum
}

// PendingSpawns reports the (switch, NF) spawn slots currently occupied
// by an in-flight provisioning.
func (d *DynamicHandler) PendingSpawns() int { return len(d.pending) }

// Zombies reports spawned instances whose cancel is still being retried.
func (d *DynamicHandler) Zombies() int {
	n := 0
	for _, l := range d.launches {
		if l.zombie {
			n++
		}
	}
	return n
}

// Counters returns the handler's failover activity counters.
func (d *DynamicHandler) Counters() *metrics.Counters { return d.counters }

// Observe feeds one snapshot of per-class rates: loads are recomputed,
// every pooled instance's detector judges its load, in instance ID order,
// and overload/recovery transitions trigger fast failover and rollback. It
// returns the number of transitions handled.
func (d *DynamicHandler) Observe(rates map[core.ClassID]float64) (int, error) {
	d.reapZombies()
	// A class removed while in failover takes its failover state with it:
	// its launches are torn down as a rollback would.
	for _, classID := range sortedKeys(d.states) {
		if !d.c.assign.has(classID) {
			d.endFailover(classID)
		}
	}
	d.forgetUnpooled()
	// The one load view of this call, recomputed in place whenever an
	// overload or a rollback reshapes weights.
	loads := d.c.Loads(rates)
	if err := d.c.ApplyLoads(loads); err != nil {
		return 0, err
	}
	transitions := 0
	for _, inst := range d.c.pooledByID() {
		id := inst.ID()
		det := inst.Detector()
		was := det.Overloaded()
		now := det.Observe(loads[id])
		handled := false
		switch {
		case !was && now:
			if err := d.overload(inst, rates, loads); err != nil {
				return transitions, err
			}
			transitions++
			handled = true
		case was && now:
			// A sustained overload keeps re-balancing: one halving is not
			// always enough when the surge lasts (new spawns remain
			// deduplicated per switch/NF, so this converges instead of
			// stampeding).
			if loads[id] > inst.Spec().CapacityMbps {
				if err := d.overload(inst, rates, loads); err != nil {
					return transitions, err
				}
				transitions++
				handled = true
			}
		case was && !now:
			// The detector cleared, but rollback is decided per class by
			// the what-if pass below: restoring the base distribution
			// must not re-overload anything.
		}
		if handled {
			// Re-balancing moved traffic: refresh loads so later
			// detectors judge the post-rebalance distribution instead of
			// re-triggering failover on instances that were just
			// relieved.
			d.c.loadsInto(loads, rates)
			if err := d.c.ApplyLoads(loads); err != nil {
				return transitions, err
			}
		}
	}
	// Rollback pass: a class in failover state rolls back as soon as its
	// base distribution would fit under every instance's overload
	// threshold (§VI: "the distribution will roll back to the normal
	// state when the VNF instance is no longer overloaded").
	for _, a := range d.c.assign.sorted() {
		classID := a.Class.ID
		if _, ok := d.states[classID]; !ok {
			continue
		}
		if !d.baseWouldFit(classID, rates, loads) {
			continue
		}
		if err := d.rollback(classID); err != nil {
			return transitions, err
		}
		transitions++
		// The next class is judged against the restored distribution.
		d.c.loadsInto(loads, rates)
	}
	return transitions, nil
}

// forgetUnpooled drops the ledger record of every activated launch that
// left the pool behind the handler's back — reaped idle after a
// re-optimization, or cancelled by a transaction unwind: the instance is
// gone, so are its cores. Zombies and in-flight spawns are not pooled and
// are not touched.
func (d *DynamicHandler) forgetUnpooled() {
	for id, l := range d.launches {
		if l.activated && !l.zombie && !d.c.pooledAt(l.sw, id) {
			delete(d.launches, id)
		}
	}
}

// baseWouldFit simulates restoring classID's base distribution on top of
// everything else's current loads and reports whether every instance
// stays below its overload threshold, that of the NF it serves. loads is
// read for the class's own instances only; the what-if lives in a map of
// just those.
func (d *DynamicHandler) baseWouldFit(classID core.ClassID, rates map[core.ClassID]float64, loads map[vnf.ID]float64) bool {
	a, _ := d.c.assign.get(classID)
	rate := a.rateUnder(rates)
	adj := make(map[vnf.ID]float64, len(a.insts))
	shift := func(inst vnf.ID, by float64) {
		cur, seen := adj[inst]
		if !seen {
			cur = loads[inst]
		}
		adj[inst] = cur + by
	}
	// Remove the class's current contribution.
	a.eachShare(rate, func(s int, share float64) {
		for _, inst := range a.Instances(s) {
			shift(inst, -share)
		}
	})
	// Add the base contribution back.
	base := a.subs[:a.NumBase()]
	bsum := 0.0
	for _, r := range base {
		bsum += r.portion
	}
	if bsum <= 0 {
		return false
	}
	for s, r := range base {
		share := rate * r.portion / bsum
		for _, inst := range a.Instances(s) {
			shift(inst, share)
		}
	}
	for j, nf := range a.Class.Chain {
		spec, err := policy.SpecOf(nf)
		if err != nil {
			return false
		}
		det := vnf.DefaultDetector(spec.CapacityMbps)
		high, _ := det.Thresholds()
		for s := range base {
			if adj[a.Instances(s)[j]] > high {
				return false
			}
		}
	}
	return true
}

// overload applies the §VI re-balancing for one overloaded instance, over,
// whose capacity every sibling serving its chain position shares.
// loads is Observe's current load view: headroom is read from it, and
// what the siblings absorb is charged against it while weights move; the
// caller recomputes it from the reshaped weights afterwards. The classes
// routed through the instance are reshaped on clones that commit in one
// transaction; spawns for the leftovers launch once it has.
func (d *DynamicHandler) overload(over *vnf.Instance, rates map[core.ClassID]float64, loads map[vnf.ID]float64) error {
	instID, capacity := over.ID(), over.Spec().CapacityMbps
	var spawns []func()
	var reshaped []core.ClassID // the transaction's buffers are gone once it commits
	txn := d.c.Begin()
	for _, live := range d.c.assign.sorted() {
		classID := live.Class.ID
		carried := false
		for s, r := range live.subs {
			carried = carried || (r.weight > 0 && slices.Contains(live.Instances(s), instID))
		}
		if !carried {
			continue
		}
		a := live.clone()
		rate := a.rateUnder(rates)
		for s := range live.subs {
			j := positionOf(a.Instances(s), instID)
			if j < 0 || a.subs[s].weight <= 0 {
				continue
			}
			half := a.subs[s].weight / 2
			remaining := half
			// Spread onto least-loaded sibling sub-classes whose serving
			// instance at position j has headroom.
			type cand struct {
				s        int
				headroom float64
			}
			var cands []cand
			for s2 := range a.subs {
				if s2 == s {
					continue
				}
				other := a.Instances(s2)[j]
				if other == instID {
					continue
				}
				head := capacity - loads[other]
				if head > 0 {
					cands = append(cands, cand{s: s2, headroom: head})
				}
			}
			sort.Slice(cands, func(x, y int) bool { return cands[x].headroom > cands[y].headroom })
			for _, cd := range cands {
				if remaining <= 1e-12 {
					break
				}
				absorbWeight := remaining
				if rate > 0 {
					maxW := cd.headroom / rate
					if maxW < absorbWeight {
						absorbWeight = maxW
					}
				}
				if absorbWeight <= 0 {
					continue
				}
				a.subs[cd.s].weight += absorbWeight
				a.subs[s].weight -= absorbWeight
				loads[a.Instances(cd.s)[j]] += absorbWeight * rate
				remaining -= absorbWeight
			}
			if remaining > 1e-9 {
				// Second resort: re-pin onto any existing instance with
				// headroom at an order-compatible hop — a pure forwarding
				// rule change ("re-balance the workload ... by requesting
				// the Rule Generator to install new forwarding rules",
				// §III), which shares capacity across classes.
				d.repin(txn, a, s, j, &remaining, rate, loads)
			}
			if remaining > 1e-9 {
				// Last resort: "the Dynamic Handler installs new ClickOS
				// instances to create new sub-classes to absorb traffic
				// dynamics." The leftover weight stays on the overloaded
				// instance until the new one is actually up; the
				// activation callback moves it. On spawn failure the
				// instance simply keeps dropping the excess.
				spawns = append(spawns, func() { _ = d.spawnSubclass(a, s, j, remaining, rate) })
			}
		}
		txn.stageReshape(a)
		reshaped = append(reshaped, classID)
	}
	if len(reshaped) == 0 {
		return nil
	}
	if err := txn.Commit(TxnOptions{}); err != nil {
		return err
	}
	for _, id := range reshaped {
		if _, ok := d.states[id]; !ok {
			d.states[id] = nil
		}
	}
	for _, spawn := range spawns {
		spawn()
	}
	return nil
}

// repin moves up to *remaining weight of sub-class src's position j onto
// existing running instances with spare capacity, creating sibling
// sub-classes whose hop vector differs only at position j within the
// order-compatible window. It reshapes the clone a and updates loads; a
// new sub-class's global tag avoids those of the reshapes staged in txn,
// which commits a.
func (d *DynamicHandler) repin(txn *RuleTxn, a *Assignment, src, j int, remaining *float64, rate float64, loads map[vnf.ID]float64) {
	if rate <= 0 {
		return
	}
	nf := a.Class.Chain[j]
	hops := a.subs[src].hops
	lo, hi := a.hopWindow(src, j)
	for h := lo; h <= hi && *remaining > 1e-9; h++ {
		v := a.Class.Path[h]
		for _, inst := range d.c.instPool[v][nf] {
			if *remaining <= 1e-9 {
				break
			}
			if _, launched := d.launches[inst.ID()]; launched || inst.State() != vnf.StateRunning {
				continue
			}
			head := inst.Spec().CapacityMbps*0.9 - loads[inst.ID()]
			if head <= 0 {
				continue
			}
			w := *remaining
			if maxW := head / rate; maxW < w {
				w = maxW
			}
			if w <= 1e-9 {
				continue
			}
			// A new sub-class takes the weight: src's hops with position
			// j re-pinned to h. There is never an existing one to extend:
			// one serving position j on inst is a sibling of src, and the
			// spread before repin filled inst to its full capacity.
			subHops := append([]int(nil), hops...)
			subHops[j] = h
			tag, err := d.c.allocSubTagFor(a, subHops, txn)
			if err != nil {
				return
			}
			a.addSubclass(subRecord{hops: subHops, weight: w, tag: tag}, src, j, inst.ID())
			a.subs[src].weight -= w
			loads[inst.ID()] += w * rate
			*remaining -= w
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverRepin).
					WithClass(int64(a.Class.ID)).WithSub(len(a.subs) - 1).WithPos(j).
					WithNode(int64(v)).WithInst(string(inst.ID())))
			}
		}
	}
}

// spawnSubclass creates a new instance for chain position j and a new
// sub-class carrying the given weight. The instance is created through
// the fast path (reconfiguring an idle ClickOS VM, 30 ms) when possible,
// otherwise via a full orchestrated boot; the new sub-class only starts
// carrying traffic when the instance is ready.
func (d *DynamicHandler) spawnSubclass(a *Assignment, src, j int, weight, rate float64) error {
	if !a.Global && len(a.subs) >= globalTagBase {
		return fmt.Errorf("controller: class %d sub-class tag space exhausted", a.Class.ID)
	}
	nf := a.Class.Chain[j]
	spec, specErr := policy.SpecOf(nf)
	if specErr != nil {
		return fmt.Errorf("controller: %w", specErr)
	}
	// Candidate switches: the sub-class's current hop for position j
	// first, then any other path hop that keeps the chain order (between
	// the neighbouring positions' hops) and has the resources.
	hops := a.subs[src].hops
	lo, hi := a.hopWindow(src, j)
	candidates := []int{hops[j]}
	for h := lo; h <= hi; h++ {
		if h != hops[j] {
			candidates = append(candidates, h)
		}
	}
	var v topology.NodeID
	chosenHop := -1
	for _, h := range candidates {
		cand := a.Class.Path[h]
		if _, ok := d.c.hosts[cand]; !ok {
			continue
		}
		if !spec.Resources().Fits(d.c.orch.Available(cand)) {
			continue
		}
		v = cand
		chosenHop = h
		break
	}
	if chosenHop < 0 {
		return errors.New("controller: no path switch can host a failover instance")
	}
	// Don't spawn for negligible leftovers, and never run more than one
	// concurrent spawn per (switch, NF).
	if weight*rate < 0.005*spec.CapacityMbps {
		return errors.New("controller: leftover too small to justify an instance")
	}
	key := spawnKey{v: v, nf: nf}
	if _, busy := d.pending[key]; busy {
		return errors.New("controller: a failover instance is already being provisioned here")
	}
	// The generation is read now: a is the live assignment, which a
	// refresh rewrites in place.
	classID, gen := a.Class.ID, a.gen
	launched := false
	// activate commits the new sub-class, and pools its instance, as one
	// reshape of the live assignment; a failed commit leaves the instance
	// to dispose of.
	activate := func(inst *vnf.Instance, _ *host.Host) {
		if d.pending[key] == inst.ID() {
			delete(d.pending, key)
		}
		cur, live := d.c.assign.get(classID)
		if !live || !sameGeneration(cur, gen) {
			// The overload rolled back — or a re-optimization cut the
			// class over to a new assignment, or refreshed its rate —
			// while the instance was booting; the distribution this spawn
			// was computed against no longer exists, so drop the late
			// activation. Another overload of the class keeps the
			// generation, and the activation commits. A launched instance
			// is cancelled (reclaiming its cores); a reconfigured VM
			// returns to the idle pool under its current NF type.
			d.counters.Inc(CtrStaleActivations)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverStale).
					WithClass(int64(classID)).WithInst(string(inst.ID())))
			}
			d.dropSpawned(v, inst)
			return
		}
		next := cur.clone()
		s2 := len(next.subs)
		subHops := append([]int(nil), next.subs[src].hops...)
		subHops[j] = chosenHop
		txn := d.c.Begin()
		tag, err := d.c.allocSubTagFor(next, subHops, txn)
		if err != nil {
			d.counters.Inc(CtrSpawnFailures)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverSpawnFail).
					WithClass(int64(classID)).WithInst(string(inst.ID())).WithErr(err))
			}
			d.dropSpawned(v, inst)
			return
		}
		// Exact weight transfer: never move more than src still carries,
		// so the class total stays conserved even if src shrank while the
		// VM was booting.
		moved := min(weight, next.subs[src].weight)
		next.subs[src].weight -= moved
		next.addSubclass(subRecord{hops: subHops, portion: weight, weight: moved, tag: tag}, src, j, inst.ID())
		d.c.repoolInstance(v, inst, txn)
		txn.stageReshape(next)
		if err := txn.Commit(TxnOptions{}); err != nil {
			d.counters.Inc(CtrActivationUnwinds)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverUnwind).
					WithClass(int64(classID)).WithSub(s2).WithInst(string(inst.ID())).WithErr(err))
			}
			d.dropSpawned(v, inst)
			return
		}
		if l, ok := d.launches[inst.ID()]; ok {
			l.activated = true
			d.launches[inst.ID()] = l
		}
		d.counters.Inc(CtrActivations)
		if d.c.tracer.Enabled() {
			d.c.tracer.Emit(trace.Ev(trace.KindFailoverActivate).
				WithClass(int64(classID)).WithSub(s2).WithPos(j).
				WithNode(int64(v)).WithInst(string(inst.ID())))
		}
	}
	// abort releases the spawn slot when the provisioning never delivers
	// an instance: a boot failure, a failed reconfiguration, or an abort
	// after the slot's instance was cancelled or crashed.
	abort := func(id vnf.ID, aerr error) {
		if d.pending[key] == id {
			delete(d.pending, key)
		}
		if errors.Is(aerr, orchestrator.ErrAborted) {
			d.counters.Inc(CtrSpawnAborts)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverSpawnAbort).
					WithClass(int64(a.Class.ID)).WithInst(string(id)).WithErr(aerr))
			}
		} else {
			d.counters.Inc(CtrSpawnFailures)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverSpawnFail).
					WithClass(int64(a.Class.ID)).WithInst(string(id)).WithErr(aerr))
			}
		}
		// The orchestrator already freed (or lost) the VM, and its cores
		// with it.
		delete(d.launches, id)
	}
	var newID vnf.ID
	var err error
	if spec.ClickOS {
		newID, err = d.c.orch.ReconfigureIdle(nf, v, activate, abort)
	} else {
		err = errors.New("full-VM NF cannot be reconfigured")
	}
	if err != nil {
		newID, err = d.c.orch.Launch(nf, v, activate, abort)
		if err != nil {
			return fmt.Errorf("controller: failover spawn at switch %d: %w", v, err)
		}
		launched = true
	}
	d.pending[key] = newID
	d.counters.Inc(CtrSpawns)
	if d.c.tracer.Enabled() {
		// Val 1 marks a full orchestrated launch, 0 a ClickOS
		// reconfiguration of an idle VM (the 30 ms fast path).
		launchedVal := int64(0)
		if launched {
			launchedVal = 1
		}
		d.c.tracer.Emit(trace.Ev(trace.KindFailoverSpawn).
			WithClass(int64(a.Class.ID)).WithSub(src).WithPos(j).
			WithNode(int64(v)).WithInst(string(newID)).WithVal(launchedVal))
	}
	if launched {
		// Only launched instances are torn down (and their cores
		// reclaimed) at rollback; a reconfigured VM simply returns to the
		// idle pool.
		d.states[a.Class.ID] = append(d.states[a.Class.ID], newID)
		d.launches[newID] = launch{cores: spec.Cores, sw: v}
		d.peakExtra = max(d.peakExtra, d.ExtraCores())
	}
	return nil
}

// dropSpawned disposes of a provisioned instance whose activation cannot
// commit: a failover launch is cancelled (reclaiming its cores), while a
// reconfigured idle VM is re-bucketed under its current NF type and left
// for reuse.
func (d *DynamicHandler) dropSpawned(v topology.NodeID, inst *vnf.Instance) {
	id := inst.ID()
	if _, launched := d.launches[id]; launched {
		d.cancelSpawned(id)
		return
	}
	d.c.repoolInstance(v, inst, nil)
}

// rollback restores the base distribution of a class in failover and
// cancels its failover instances (§VI: "when a VNF instance is no longer overloaded,
// the newly installed ClickOS instances are cancelled to save hardware
// resources"). The reshape flips classification back to the base
// sub-classes before it retires the steering of the tail ones, so no
// packet is classified onto a sub-class without steering.
func (d *DynamicHandler) rollback(classID core.ClassID) error {
	live, _ := d.c.assign.get(classID)
	if d.c.tracer.Enabled() {
		d.c.tracer.Emit(trace.Ev(trace.KindFailoverRollback).
			WithClass(int64(classID)).
			WithVal(int64(len(live.subs) - live.NumBase())))
	}
	base := live.NumBase()
	next := *live
	next.subs = slices.Clone(live.subs[:base])
	for s := range next.subs {
		next.subs[s].weight = next.subs[s].portion
	}
	next.insts = slices.Clip(live.insts[:base*len(live.Class.Chain)])
	// A new generation: activations still in flight drop themselves
	// instead of committing against the restored distribution.
	next.gen = d.c.nextGen()
	txn := d.c.Begin()
	txn.stageReshape(&next)
	if err := txn.Commit(TxnOptions{}); err != nil {
		return err
	}
	d.endFailover(classID)
	d.counters.Inc(CtrRollbacks)
	return nil
}

// sameGeneration reports whether cur is still generation gen, a number
// read off an assignment when a spawn was computed against it: cur is
// that assignment, or descends from it through overloads and activations
// only, whose clones keep the generation number, while installs, updates,
// refreshes and rollbacks draw a new one. The number is compared, not the
// assignment it was read off: a refresh rewrites the live assignment's
// generation in place, and the spawn's assignment may be that one.
func sameGeneration(cur *Assignment, gen uint32) bool {
	return cur.gen == gen
}

// endFailover cancels (or adopts) classID's failover launches and forgets
// its failover state.
func (d *DynamicHandler) endFailover(classID core.ClassID) {
	for _, spawnedID := range d.states[classID] {
		d.cancelSpawned(spawnedID)
	}
	delete(d.states, classID)
}

// cancelSpawned tears down a failover launch: the instance leaves the
// pool immediately; its ledger record stays until the
// orchestrator confirms the cancel. An instance that is already gone
// (cancelled earlier, boot failed, or lost in a host crash) just has its
// record deleted; a lost cancel RPC turns it into a zombie retried on the
// next Observe — with no cores if the ledger no longer held any.
//
// One exception: an instance a re-optimization pass has since promoted
// into the installed placement is ADOPTED, not cancelled — killing it
// would leave live steering rules forwarding to a dead port. Adoption
// deletes its ledger record (it is now part of the plan, so it no longer
// counts toward ExtraCores) and keeps it in service.
func (d *DynamicHandler) cancelSpawned(id vnf.ID) {
	if d.c.assign.references(id) {
		delete(d.launches, id)
		d.counters.Inc(CtrSpawnAdoptions)
		return
	}
	d.c.dropFromPool(id, nil)
	err := d.c.orch.Cancel(id)
	switch {
	case err == nil, errors.Is(err, orchestrator.ErrUnknownInstance):
		delete(d.launches, id)
	default:
		// The cancel RPC was lost: the VM still runs and holds its
		// cores, so the ledger stays truthful until a retry lands.
		l := d.launches[id]
		l.zombie = true
		d.launches[id] = l
		d.counters.Inc(CtrZombieCancels)
		if d.c.tracer.Enabled() {
			d.c.tracer.Emit(trace.Ev(trace.KindFailoverZombie).WithInst(string(id)).WithErr(err))
		}
	}
}

// reapZombies retries cancels that previously failed, keeping ExtraCores
// truthful until the orchestrator confirms each instance is gone.
func (d *DynamicHandler) reapZombies() {
	var ids []vnf.ID
	for id, l := range d.launches {
		if l.zombie {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		err := d.c.orch.Cancel(id)
		if err != nil && !errors.Is(err, orchestrator.ErrUnknownInstance) {
			continue
		}
		delete(d.launches, id)
		d.counters.Inc(CtrZombiesReaped)
		if d.c.tracer.Enabled() {
			d.c.tracer.Emit(trace.Ev(trace.KindFailoverReap).WithInst(string(id)))
		}
	}
}

// spawnKey identifies a (switch, NF) spawn slot.
type spawnKey struct {
	v  topology.NodeID
	nf policy.NF
}

// positionOf returns the chain position served by instID, or -1.
func positionOf(insts []vnf.ID, instID vnf.ID) int {
	for j, id := range insts {
		if id == instID {
			return j
		}
	}
	return -1
}
