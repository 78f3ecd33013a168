package controller

import (
	"errors"
	"fmt"
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
// per-class traffic rates (Mbps), using the current sub-class weights.
func (c *Controller) Loads(rates map[core.ClassID]float64) map[vnf.ID]float64 {
	// The portion ledger has one entry per instance carrying planned load:
	// the size the result is about to have.
	out := make(map[vnf.ID]float64, len(c.instPortion))
	c.loadsInto(out, rates)
	return out
}

// loadsInto recomputes Loads into out, discarding what it held. Classes
// contribute in ascending ID order, so each instance's sum is accumulated
// in the same order — and comes out bit-identical — on every run.
func (c *Controller) loadsInto(out map[vnf.ID]float64, rates map[core.ClassID]float64) {
	clear(out)
	for _, a := range c.assign.sorted() {
		rate, ok := rates[a.Class.ID]
		if !ok {
			rate = a.Class.RateMbps
		}
		total := 0.0
		for _, w := range a.Weights {
			total += w
		}
		if total <= 0 {
			continue
		}
		for s := range a.Subclasses {
			share := rate * a.Weights[s] / total
			for _, inst := range a.Instances[s] {
				out[inst] += share
			}
		}
	}
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
	loads := c.Loads(rates)
	if err := c.ApplyLoads(loads); err != nil {
		return 0, err
	}
	lossByInst := make(map[vnf.ID]float64, len(loads))
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				lossByInst[inst.ID()] = inst.LossRate()
			}
		}
	}
	totalRate, totalLost := 0.0, 0.0
	for _, a := range c.assign.sorted() {
		rate, ok := rates[a.Class.ID]
		if !ok {
			rate = a.Class.RateMbps
		}
		wsum := 0.0
		for _, w := range a.Weights {
			wsum += w
		}
		if wsum <= 0 {
			continue
		}
		for s := range a.Subclasses {
			share := rate * a.Weights[s] / wsum
			worst := 0.0
			for _, inst := range a.Instances[s] {
				if l := lossByInst[inst]; l > worst {
					worst = l
				}
			}
			totalRate += share
			totalLost += share * worst
		}
	}
	if totalRate == 0 {
		return 0, nil
	}
	return totalLost / totalRate, nil
}

// failoverState tracks one class's temporary reshaping.
type failoverState struct {
	// triggers are the overloaded instances that caused reshaping.
	triggers map[vnf.ID]bool
	// spawned lists instances created for extra sub-classes, to cancel on
	// rollback.
	spawned []vnf.ID
}

// DynamicHandler reacts to overload notifications with the §VI fast
// failover: halve the weight of sub-classes traversing the overloaded
// instance, spread the freed half onto the least-loaded sibling
// sub-classes with headroom, and when nothing can absorb it, bring up a
// new ClickOS instance and a new sub-class. When the instance recovers,
// everything rolls back and spawned instances are cancelled.
//
// Every mutation is transactional: a failed re-pin, activation, or rule
// install unwinds all of its partial state (sub-class arrays, tags,
// vSwitch rules, pool entries, core accounting), and CheckInvariants can
// be asserted between any two events.
type DynamicHandler struct {
	c         *Controller
	detectors map[vnf.ID]*vnf.Detector        // confined to the simulation loop
	states    map[core.ClassID]*failoverState // confined to the simulation loop
	// spawnedSet marks failover-launched instances; re-pinning avoids
	// them because they are cancelled on their owner class's rollback.
	// It is confined to the simulation loop.
	spawnedSet map[vnf.ID]bool
	// pending guards against spawning more than one failover instance per
	// (switch, NF) at a time — Fig 4 shows one new ClickOS VM per
	// overload, and the paper reports <17 additional cores in total. The
	// value is the instance provisioning for the slot; the orchestrator's
	// exactly-one-callback contract guarantees the slot is released.
	// It is confined to the simulation loop.
	pending map[spawnKey]vnf.ID
	// spawnedCores records the cores accounted per failover launch;
	// extraCores is always its sum, even across dropped activations,
	// crashes, and failed cancels. Confined to the simulation loop.
	spawnedCores map[vnf.ID]int
	// zombies are spawned instances whose Cancel RPC was lost: out of
	// service but still holding (and accounting) their cores until a
	// retried cancel succeeds. Confined to the simulation loop.
	zombies map[vnf.ID]bool
	// epochs invalidate in-flight spawn activations after a rollback.
	// They live on the handler — not the per-class failover state — so a
	// fresh overload after a rollback cannot reuse an epoch an old
	// in-flight activation captured. Confined to the simulation loop.
	epochs map[core.ClassID]int
	// extraCores tracks hardware spent on failover instances.
	extraCores int // confined to the simulation loop
	peakExtra  int // confined to the simulation loop
	counters   *metrics.Counters
}

// NewDynamicHandler attaches a handler to the controller, creating a
// hysteresis detector per placed instance (thresholds per §VII-B).
func NewDynamicHandler(c *Controller) (*DynamicHandler, error) {
	if c == nil {
		return nil, errors.New("controller: nil controller")
	}
	d := &DynamicHandler{
		c:            c,
		detectors:    make(map[vnf.ID]*vnf.Detector),
		states:       make(map[core.ClassID]*failoverState),
		pending:      make(map[spawnKey]vnf.ID),
		spawnedSet:   make(map[vnf.ID]bool),
		spawnedCores: make(map[vnf.ID]int),
		zombies:      make(map[vnf.ID]bool),
		epochs:       make(map[core.ClassID]int),
		counters:     metrics.NewCounters(),
	}
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				det, err := vnf.DefaultDetector(inst.Spec().CapacityMbps)
				if err != nil {
					return nil, fmt.Errorf("controller: %w", err)
				}
				d.detectors[inst.ID()] = det
			}
		}
	}
	return d, nil
}

// PeakExtraCores reports the maximum cores ever concurrently dedicated to
// failover instances.
func (d *DynamicHandler) PeakExtraCores() int { return d.peakExtra }

// ExtraCores reports the cores currently dedicated to failover instances
// (the paper's Fig 12 metric is the average of this over the replay).
func (d *DynamicHandler) ExtraCores() int { return d.extraCores }

// PendingSpawns reports the (switch, NF) spawn slots currently occupied
// by an in-flight provisioning.
func (d *DynamicHandler) PendingSpawns() int { return len(d.pending) }

// Zombies reports spawned instances whose cancel is still being retried.
func (d *DynamicHandler) Zombies() int { return len(d.zombies) }

// Counters returns the handler's failover activity counters.
func (d *DynamicHandler) Counters() *metrics.Counters { return d.counters }

// Observe feeds one snapshot of per-class rates: loads are recomputed,
// detectors run, and overload/recovery transitions trigger fast failover
// and rollback. It returns the number of transitions handled.
func (d *DynamicHandler) Observe(rates map[core.ClassID]float64) (int, error) {
	d.reapZombies()
	// A class removed while in failover takes its failover state with it:
	// its launches are torn down as a rollback would, and its epoch is
	// forgotten — a late activation still drops itself, because the live
	// assignment (if the ID returns) is not the one it was spawned for.
	for _, classID := range sortedKeys(d.states) {
		if _, live := d.c.assign.get(classID); !live {
			d.endFailover(classID)
			delete(d.epochs, classID)
		}
	}
	// Pick up instances added since the handler was created (online
	// classes, failover spawns from other handlers).
	pooled := 0
	for _, byNF := range d.c.instPool {
		for _, insts := range byNF {
			pooled += len(insts)
			for _, inst := range insts {
				if _, ok := d.detectors[inst.ID()]; ok {
					continue
				}
				det, err := vnf.DefaultDetector(inst.Spec().CapacityMbps)
				if err != nil {
					return 0, fmt.Errorf("controller: %w", err)
				}
				d.detectors[inst.ID()] = det
			}
		}
	}
	// Every pooled instance now has a detector, so a surplus means some
	// detectors outlived their instance.
	if len(d.detectors) > pooled {
		d.forgetUnpooled()
	}
	// The one load view of this call, recomputed in place whenever an
	// overload or a rollback reshapes weights.
	loads := d.c.Loads(rates)
	if err := d.c.ApplyLoads(loads); err != nil {
		return 0, err
	}
	transitions := 0
	// Deterministic order.
	ids := make([]vnf.ID, 0, len(d.detectors))
	for id := range d.detectors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		det := d.detectors[id]
		if det == nil {
			continue // instance cancelled by an earlier rollback this round
		}
		was := det.Overloaded()
		now := det.Observe(loads[id])
		handled := false
		switch {
		case !was && now:
			if err := d.overload(id, rates, loads); err != nil {
				return transitions, err
			}
			transitions++
			handled = true
		case was && now:
			// A sustained overload keeps re-balancing: one halving is not
			// always enough when the surge lasts (new spawns remain
			// deduplicated per switch/NF, so this converges instead of
			// stampeding).
			inst, err := d.c.findInstance(id)
			if err == nil && loads[id] > inst.Spec().CapacityMbps {
				if err := d.overload(id, rates, loads); err != nil {
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
	for _, classID := range d.c.Classes() {
		if d.states[classID] == nil {
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

// forgetUnpooled drops what the handler still holds for instances that
// left the pool behind its back — reaped idle after a re-optimization, or
// cancelled by a transaction unwind: their detectors, and for a failover
// launch its spawn marker and core accounting (the instance is gone, so
// are its cores). Zombies and in-flight spawns have no detector and are
// not touched.
func (d *DynamicHandler) forgetUnpooled() {
	pooled := make(map[vnf.ID]bool, len(d.detectors))
	for _, byNF := range d.c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				pooled[inst.ID()] = true
			}
		}
	}
	for id := range d.detectors {
		if pooled[id] {
			continue
		}
		delete(d.detectors, id)
		delete(d.spawnedSet, id)
		if cores, ok := d.spawnedCores[id]; ok {
			d.extraCores -= cores
			delete(d.spawnedCores, id)
		}
	}
}

// baseWouldFit simulates restoring classID's base distribution on top of
// everything else's current loads and reports whether every instance
// stays below its overload threshold. loads is read for the class's own
// instances only; the what-if lives in a map of just those.
func (d *DynamicHandler) baseWouldFit(classID core.ClassID, rates map[core.ClassID]float64, loads map[vnf.ID]float64) bool {
	a, _ := d.c.assign.get(classID)
	rate, ok := rates[classID]
	if !ok {
		rate = a.Class.RateMbps
	}
	adj := make(map[vnf.ID]float64, len(a.Subclasses)*len(a.Class.Chain))
	shift := func(inst vnf.ID, by float64) {
		cur, seen := adj[inst]
		if !seen {
			cur = loads[inst]
		}
		adj[inst] = cur + by
	}
	// Remove the class's current contribution.
	wsum := 0.0
	for _, w := range a.Weights {
		wsum += w
	}
	if wsum > 0 {
		for s := range a.Subclasses {
			share := rate * a.Weights[s] / wsum
			for _, inst := range a.Instances[s] {
				shift(inst, -share)
			}
		}
	}
	// Add the base contribution back.
	bsum := 0.0
	for _, w := range a.Base {
		bsum += w
	}
	if bsum <= 0 {
		return false
	}
	for s := range a.Base {
		share := rate * a.Base[s] / bsum
		for _, inst := range a.Instances[s] {
			shift(inst, share)
		}
	}
	for s := range a.Base {
		for _, inst := range a.Instances[s] {
			det := d.detectors[inst]
			if det == nil {
				continue
			}
			high, _ := det.Thresholds()
			if adj[inst] > high {
				return false
			}
		}
	}
	return true
}

// overload applies the §VI re-balancing for one overloaded instance.
// loads is Observe's current load view: headroom is read from it, and
// what the siblings absorb is charged against it while weights move; the
// caller recomputes it from the reshaped weights afterwards.
func (d *DynamicHandler) overload(instID vnf.ID, rates map[core.ClassID]float64, loads map[vnf.ID]float64) error {
	for _, classID := range d.c.Classes() {
		a, _ := d.c.assign.get(classID)
		rate, ok := rates[classID]
		if !ok {
			rate = a.Class.RateMbps
		}
		changed := false
		for s := range a.Subclasses {
			j := positionOf(a.Instances[s], instID)
			if j < 0 || a.Weights[s] <= 0 {
				continue
			}
			half := a.Weights[s] / 2
			changed = true
			remaining := half
			// Spread onto least-loaded sibling sub-classes whose serving
			// instance at position j has headroom.
			type cand struct {
				s        int
				headroom float64
			}
			var cands []cand
			for s2 := range a.Subclasses {
				if s2 == s {
					continue
				}
				other := a.Instances[s2][j]
				if other == instID {
					continue
				}
				capacity, err := d.capacityOf(other)
				if err != nil {
					return err
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
				a.Weights[cd.s] += absorbWeight
				a.Weights[s] -= absorbWeight
				loads[a.Instances[cd.s][j]] += absorbWeight * rate
				remaining -= absorbWeight
			}
			if remaining > 1e-9 {
				// Second resort: re-pin onto any existing instance with
				// headroom at an order-compatible hop — a pure forwarding
				// rule change ("re-balance the workload ... by requesting
				// the Rule Generator to install new forwarding rules",
				// §III), which shares capacity across classes.
				absorbed := d.repin(a, s, j, &remaining, rate, loads)
				if absorbed {
					changed = true
				}
			}
			if remaining > 1e-9 {
				// Last resort: "the Dynamic Handler installs new ClickOS
				// instances to create new sub-classes to absorb traffic
				// dynamics." The leftover weight stays on the overloaded
				// instance until the new one is actually up; the
				// activation callback moves it. On spawn failure the
				// instance simply keeps dropping the excess.
				_ = d.spawnSubclass(a, s, j, remaining, rate)
			}
		}
		if changed {
			st := d.states[classID]
			if st == nil {
				st = &failoverState{triggers: make(map[vnf.ID]bool)}
				d.states[classID] = st
			}
			st.triggers[instID] = true
			if err := d.c.installClassification(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// repin moves up to *remaining weight of sub-class src's position j onto
// existing running instances with spare capacity, creating (or extending)
// sibling sub-classes whose hop vector differs only at position j within
// the order-compatible window. It updates loads and weights in place and
// reports whether anything moved.
func (d *DynamicHandler) repin(a *Assignment, src, j int, remaining *float64, rate float64, loads map[vnf.ID]float64) bool {
	if rate <= 0 {
		return false
	}
	nf := a.Class.Chain[j]
	hops := a.Subclasses[src].Hops
	lo, hi := 0, len(a.Class.Path)-1
	if j > 0 {
		lo = hops[j-1]
	}
	if j+1 < len(hops) {
		hi = hops[j+1]
	}
	moved := false
	for h := lo; h <= hi && *remaining > 1e-9; h++ {
		v := a.Class.Path[h]
		for _, inst := range d.c.instPool[v][nf] {
			if *remaining <= 1e-9 {
				break
			}
			if inst.State() != vnf.StateRunning || d.spawnedSet[inst.ID()] {
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
			// Build the target sub-class (src's hops with position j
			// re-pinned); merge into an identical existing one if any.
			target := -1
			for s2 := range a.Subclasses {
				if s2 == src || a.Instances[s2][j] != inst.ID() {
					continue
				}
				if a.Subclasses[s2].Hops[j] == h && sameExcept(a.Instances[s2], a.Instances[src], j) {
					target = s2
					break
				}
			}
			if target < 0 {
				sub := core.Subclass{Hops: append([]int(nil), hops...)}
				sub.Hops[j] = h
				insts := append([]vnf.ID(nil), a.Instances[src]...)
				insts[j] = inst.ID()
				tag, err := d.c.allocSubTagFor(a, subclassHosts(a.Class, sub.Hops), nil)
				if err != nil {
					return moved
				}
				a.Subclasses = append(a.Subclasses, sub)
				a.Instances = append(a.Instances, insts)
				a.Weights = append(a.Weights, 0)
				a.SubTags = append(a.SubTags, tag)
				target = len(a.Subclasses) - 1
				if err := d.c.installVSwitchRules(a, target); err != nil {
					// Roll the new sub-class back — including any rules
					// the partial install did land — and stop re-pinning.
					d.c.removeVSwitchRules(a, target)
					d.c.releaseSubTags(a, target, nil)
					a.Subclasses = a.Subclasses[:target]
					a.Instances = a.Instances[:target]
					a.Weights = a.Weights[:target]
					a.SubTags = a.SubTags[:target]
					return moved
				}
			}
			a.Weights[target] += w
			a.Weights[src] -= w
			loads[inst.ID()] += w * rate
			*remaining -= w
			moved = true
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverRepin).
					WithClass(int64(a.Class.ID)).WithSub(target).WithPos(j).
					WithNode(int64(v)).WithInst(string(inst.ID())))
			}
		}
	}
	return moved
}

// sameExcept reports whether two instance vectors agree everywhere but
// position j.
func sameExcept(a, b []vnf.ID, j int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if i != j && a[i] != b[i] {
			return false
		}
	}
	return true
}

// spawnSubclass creates a new instance for chain position j and a new
// sub-class carrying the given weight. The instance is created through
// the fast path (reconfiguring an idle ClickOS VM, 30 ms) when possible,
// otherwise via a full orchestrated boot; the new sub-class only starts
// carrying traffic when the instance is ready.
func (d *DynamicHandler) spawnSubclass(a *Assignment, src, j int, weight, rate float64) error {
	if !a.Global && len(a.Subclasses) >= globalTagBase {
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
	hops := a.Subclasses[src].Hops
	lo, hi := 0, len(a.Class.Path)-1
	if j > 0 {
		lo = hops[j-1]
	}
	if j+1 < len(hops) {
		hi = hops[j+1]
	}
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
	st0 := d.states[a.Class.ID]
	if st0 == nil {
		st0 = &failoverState{triggers: make(map[vnf.ID]bool)}
		d.states[a.Class.ID] = st0
	}
	epoch := d.epochs[a.Class.ID]
	launched := false
	// activate commits the new sub-class transactionally: every step that
	// can fail either happens before any shared state is touched, or is
	// followed by a full unwind (arrays, tags, rules, pool, accounting).
	activate := func(inst *vnf.Instance, h *host.Host) {
		_ = h
		if d.pending[key] == inst.ID() {
			delete(d.pending, key)
		}
		cur, live := d.c.assign.get(a.Class.ID)
		if d.epochs[a.Class.ID] != epoch || src >= len(a.Weights) || !live || cur != a {
			// The overload rolled back — or a re-optimization cut the
			// class over to a new assignment object — while the instance
			// was booting; the distribution this spawn was computed
			// against no longer exists, so drop the late activation.
			// Committing against the orphaned assignment would install
			// steering rules for a sub-class the live assignment does not
			// have. A launched instance is cancelled (reclaiming its
			// cores); a reconfigured VM returns to the idle pool under
			// its current NF type.
			d.counters.Inc(CtrStaleActivations)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverStale).
					WithClass(int64(a.Class.ID)).WithInst(string(inst.ID())))
			}
			d.dropSpawned(v, inst)
			return
		}
		s2 := len(a.Subclasses)
		sub := core.Subclass{Portion: weight, Hops: append([]int(nil), a.Subclasses[src].Hops...)}
		sub.Hops[j] = chosenHop
		newInsts := append([]vnf.ID(nil), a.Instances[src]...)
		newInsts[j] = inst.ID()
		tag, tagErr := d.c.allocSubTagFor(a, subclassHosts(a.Class, sub.Hops), nil)
		if tagErr != nil {
			d.counters.Inc(CtrSpawnFailures)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverSpawnFail).
					WithClass(int64(a.Class.ID)).WithInst(string(inst.ID())).WithErr(tagErr))
			}
			d.dropSpawned(v, inst)
			return
		}
		if launched {
			d.c.poolAdd(v, nf, inst)
		} else {
			// The reconfigured VM changed NF type; move it to the
			// matching pool bucket so lookups stay consistent.
			d.c.repoolInstance(v, inst)
		}
		if det, derr := vnf.DefaultDetector(inst.Spec().CapacityMbps); derr == nil {
			d.detectors[inst.ID()] = det
		}
		a.SubTags = append(a.SubTags, tag)
		a.Subclasses = append(a.Subclasses, sub)
		a.Instances = append(a.Instances, newInsts)
		a.Weights = append(a.Weights, 0)
		unwind := func() {
			d.counters.Inc(CtrActivationUnwinds)
			if d.c.tracer.Enabled() {
				d.c.tracer.Emit(trace.Ev(trace.KindFailoverUnwind).
					WithClass(int64(a.Class.ID)).WithSub(s2).WithInst(string(inst.ID())))
			}
			d.c.removeVSwitchRules(a, s2)
			d.c.releaseSubTags(a, s2, nil)
			a.SubTags = a.SubTags[:s2]
			a.Subclasses = a.Subclasses[:s2]
			a.Instances = a.Instances[:s2]
			a.Weights = a.Weights[:s2]
			delete(d.detectors, inst.ID())
			d.dropSpawned(v, inst)
		}
		if err := d.c.installVSwitchRules(a, s2); err != nil {
			unwind()
			return
		}
		// Exact weight transfer: never move more than src still carries,
		// so the class total stays conserved even if src shrank while the
		// VM was booting.
		moved := weight
		if a.Weights[src] < moved {
			moved = a.Weights[src]
		}
		a.Weights[src] -= moved
		a.Weights[s2] = moved
		if err := d.c.installClassification(a); err != nil {
			a.Weights[src] += moved
			unwind()
			// installClassification removed the class's old rules before
			// failing; reinstall from the restored weights (same rule
			// count as before the attempt, so this fits where the
			// original did).
			_ = d.c.installClassification(a)
			return
		}
		d.counters.Inc(CtrActivations)
		if d.c.tracer.Enabled() {
			d.c.tracer.Emit(trace.Ev(trace.KindFailoverActivate).
				WithClass(int64(a.Class.ID)).WithSub(s2).WithPos(j).
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
		if cores, ok := d.spawnedCores[id]; ok {
			// The orchestrator already freed (or lost) the VM; drop our
			// core accounting for it.
			d.extraCores -= cores
			delete(d.spawnedCores, id)
			delete(d.spawnedSet, id)
			delete(d.zombies, id)
		}
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
		st0.spawned = append(st0.spawned, newID)
		d.spawnedSet[newID] = true
		d.spawnedCores[newID] = spec.Cores
		d.extraCores += spec.Cores
		if d.extraCores > d.peakExtra {
			d.peakExtra = d.extraCores
		}
	}
	return nil
}

// dropSpawned disposes of a provisioned instance whose activation cannot
// commit: a failover launch is cancelled (reclaiming its cores), while a
// reconfigured idle VM is re-bucketed under its current NF type and left
// for reuse.
func (d *DynamicHandler) dropSpawned(v topology.NodeID, inst *vnf.Instance) {
	id := inst.ID()
	if d.spawnedSet[id] || d.zombies[id] {
		d.cancelSpawned(id)
		return
	}
	d.c.repoolInstance(v, inst)
}

// rollback restores one class's base distribution and cancels its
// failover instances (§VI: "when a VNF instance is no longer overloaded,
// the newly installed ClickOS instances are cancelled to save hardware
// resources").
func (d *DynamicHandler) rollback(classID core.ClassID) error {
	if d.states[classID] == nil {
		return nil
	}
	a, _ := d.c.assign.get(classID)
	// Bump the class epoch before touching anything: every in-flight
	// activation captured the old value and will drop itself instead of
	// committing against the restored distribution.
	d.epochs[classID]++
	if d.c.tracer.Enabled() {
		d.c.tracer.Emit(trace.Ev(trace.KindFailoverRollback).
			WithClass(int64(classID)).
			WithVal(int64(len(a.Subclasses) - len(a.Base))))
	}
	// Drop re-pinned and spawned sub-classes (they occupy the tail),
	// removing their steering rules first — a leaked rule would shadow
	// the reinstall when a later failover reuses the same sub-class slot.
	base := len(a.Base)
	for s := base; s < len(a.Subclasses); s++ {
		d.c.removeVSwitchRules(a, s)
	}
	d.c.releaseSubTags(a, base, nil)
	a.Subclasses = a.Subclasses[:base]
	a.Instances = a.Instances[:base]
	a.Weights = append(a.Weights[:0], a.Base...)
	a.SubTags = a.SubTags[:base]
	d.endFailover(classID)
	d.counters.Inc(CtrRollbacks)
	return d.c.installClassification(a)
}

// endFailover cancels (or adopts) classID's failover launches and forgets
// its failover state.
func (d *DynamicHandler) endFailover(classID core.ClassID) {
	for _, spawnedID := range d.states[classID].spawned {
		d.cancelSpawned(spawnedID)
	}
	delete(d.states, classID)
}

// cancelSpawned tears down a failover launch: the instance leaves the
// pool and detectors immediately; its cores stay accounted until the
// orchestrator confirms the cancel. An instance that is already gone
// (cancelled earlier, boot failed, or lost in a host crash) just has its
// accounting cleared; a lost cancel RPC turns it into a zombie retried
// on the next Observe.
//
// One exception: an instance a re-optimization pass has since promoted
// into the installed placement is ADOPTED, not cancelled — killing it
// would leave live steering rules forwarding to a dead port. Adoption
// ends the handler's temporary-hardware accounting for it (it is now
// part of the plan, so it no longer counts toward ExtraCores) and keeps
// it in service.
func (d *DynamicHandler) cancelSpawned(id vnf.ID) {
	if d.c.assign.references(id) {
		delete(d.spawnedSet, id)
		if cores, ok := d.spawnedCores[id]; ok {
			d.extraCores -= cores
			delete(d.spawnedCores, id)
		}
		delete(d.zombies, id)
		d.counters.Inc(CtrSpawnAdoptions)
		return
	}
	delete(d.detectors, id)
	delete(d.spawnedSet, id)
	d.c.dropFromPool(id, nil)
	cores, accounted := d.spawnedCores[id]
	err := d.c.orch.Cancel(id)
	switch {
	case err == nil, errors.Is(err, orchestrator.ErrUnknownInstance):
		if accounted {
			d.extraCores -= cores
			delete(d.spawnedCores, id)
		}
		delete(d.zombies, id)
	default:
		// The cancel RPC was lost: the VM still runs and holds its
		// cores, so the accounting stays truthful until a retry lands.
		d.zombies[id] = true
		d.counters.Inc(CtrZombieCancels)
		if d.c.tracer.Enabled() {
			d.c.tracer.Emit(trace.Ev(trace.KindFailoverZombie).WithInst(string(id)).WithErr(err))
		}
	}
}

// reapZombies retries cancels that previously failed, keeping ExtraCores
// truthful until the orchestrator confirms each instance is gone.
func (d *DynamicHandler) reapZombies() {
	if len(d.zombies) == 0 {
		return
	}
	ids := make([]vnf.ID, 0, len(d.zombies))
	for id := range d.zombies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		err := d.c.orch.Cancel(id)
		if err != nil && !errors.Is(err, orchestrator.ErrUnknownInstance) {
			continue
		}
		if cores, ok := d.spawnedCores[id]; ok {
			d.extraCores -= cores
			delete(d.spawnedCores, id)
		}
		delete(d.zombies, id)
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

// capacityOf returns the datasheet capacity of a placed instance.
func (d *DynamicHandler) capacityOf(id vnf.ID) (float64, error) {
	inst, err := d.c.findInstance(id)
	if err != nil {
		return 0, err
	}
	return inst.Spec().CapacityMbps, nil
}
