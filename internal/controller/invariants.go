package controller

import (
	"fmt"
	"math"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// weightTol is the float tolerance for weight-conservation checks, and
// the relative one for the portion ledger.
const weightTol = 1e-6

// CheckInvariants audits the controller and handler state that the
// transactional failover discipline promises to keep consistent. It is
// meant to hold between any two simulation events — the churn-replay
// harness asserts it after every event — and returns the first violation
// found:
//
//   - per class: one instance row per sub-class, never fewer sub-classes
//     than base ones, with non-negative weights summing to the base
//     sub-classes' planned portions (weight conservation);
//   - tags: local classes tag sub-class s with s; header-rewriting classes
//     use distinct upper-half tags, and no two of them share a tag at a
//     host they both visit (their steering matches ⟨in-port, tag⟩ alone);
//   - vSwitch rules: every live sub-class has its steering rules on
//     every host it visits, and no host carries a stale "vsw-*" rule for
//     a sub-class that no longer exists;
//   - host-match: every hosting switch answers its own host tag with its
//     host-match rule, so packets tagged for its host enter it;
//   - routes: every switch of every installed class's path carries the
//     route toward the class's destination (checkRoutes);
//   - portion ledger: each instance's entry is Σ rate × portion over
//     the installed assignments' base sub-classes it serves (to 1e-6
//     relative, absolute below 1 Mbps), and an instance no base
//     sub-class serves carries none;
//   - core accounting: every launch in the failover ledger is still
//     managed by the orchestrator (or lost to a crash whose abort
//     callback is still in flight), and PeakExtraCores is at least
//     ExtraCores;
//   - pending spawn slots: every occupied (switch, NF) slot names an
//     instance with a lifecycle callback still scheduled — no orphans;
//   - pools: every pooled instance sits in the bucket of its current NF
//     type (unless mid-reconfiguration or dead), exactly once.
func (d *DynamicHandler) CheckInvariants() error {
	c := d.c
	// globalOwner names the header-rewriting class holding each tag at each
	// host.
	type hostTag struct {
		v   topology.NodeID
		tag uint8
	}
	globalOwner := make(map[hostTag]core.ClassID)
	// Per-class structural and conservation checks.
	for _, id := range c.Classes() {
		a, _ := c.assign.get(id)
		n := len(a.subs)
		if len(a.insts) != n*len(a.Class.Chain) {
			return fmt.Errorf("invariant: class %d has %d sub-classes but %d instances for a %d-NF chain",
				id, n, len(a.insts), len(a.Class.Chain))
		}
		if n < a.NumBase() {
			return fmt.Errorf("invariant: class %d has %d sub-classes, fewer than its %d base sub-classes", id, n, a.NumBase())
		}
		wsum, bsum := 0.0, 0.0
		for s, r := range a.subs {
			if r.weight < -weightTol {
				return fmt.Errorf("invariant: class %d sub-class %d has negative weight %v", id, s, r.weight)
			}
			wsum += r.weight
		}
		for _, r := range a.subs[:a.NumBase()] {
			bsum += r.portion
		}
		if math.Abs(wsum-bsum) > weightTol {
			return fmt.Errorf("invariant: class %d weight sum %v != base sum %v (conservation broken)", id, wsum, bsum)
		}
		// Tag discipline.
		seen := make(map[uint8]bool, n)
		for s, r := range a.subs {
			tag := r.tag
			if !a.Global {
				if int(tag) != s {
					return fmt.Errorf("invariant: class %d sub-class %d carries local tag %d", id, s, tag)
				}
				continue
			}
			if tag < globalTagBase {
				return fmt.Errorf("invariant: global class %d sub-class %d carries lower-half tag %d", id, s, tag)
			}
			if seen[tag] {
				return fmt.Errorf("invariant: global class %d reuses tag %d", id, tag)
			}
			seen[tag] = true
			for _, v := range subclassHosts(a.Class, r.hops) {
				if other, ok := globalOwner[hostTag{v, tag}]; ok {
					return fmt.Errorf("invariant: global classes %d and %d share tag %d at host %d", other, id, tag, v)
				}
				globalOwner[hostTag{v, tag}] = id
			}
		}
		// Steering rules present for every live sub-class.
		for s, r := range a.subs {
			name := fmt.Sprintf("vsw-%d-%d", id, s)
			for _, v := range subclassHosts(a.Class, r.hops) {
				h, ok := c.hosts[v]
				if !ok {
					return fmt.Errorf("invariant: class %d sub-class %d visits switch %d with no host", id, s, v)
				}
				steer, err := h.VSwitch().Table(0)
				if err != nil {
					return fmt.Errorf("invariant: %w", err)
				}
				if !steer.Has(name) {
					return fmt.Errorf("invariant: rule %q missing at host %d", name, v)
				}
			}
		}
		// Classification present at the ingress.
		ingress, err := c.switches[a.Class.Path[0]].Pipeline.Table(TableAPPLE)
		if err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		if !ingress.Has(fmt.Sprintf("cls-%d", id)) {
			return fmt.Errorf("invariant: class %d has no classification rules at its ingress", id)
		}
		if err := c.checkRoutes(a); err != nil {
			return err
		}
	}
	// Per host: its switch answers the host's tag with the host-match row
	// (without it, packets tagged for the host pass the switch by and skip
	// the NFs there), and no steering rule is stale: every
	// "vsw-<class>-<s>" must name a live sub-class that visits the host.
	for v, h := range c.hosts {
		sw := c.switches[v]
		apple, err := sw.Pipeline.Table(TableAPPLE)
		if err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		r, _ := apple.Lookup(flowtable.Packet{HostTag: sw.hostTag})
		if tag, ok := r.Match.HostTag(); r.Name != "host-match" || !ok || tag != sw.hostTag {
			return fmt.Errorf("invariant: switch %d answers its host tag %d with %q, not its host-match rule", v, sw.hostTag, r.Name)
		}
		steer, err := h.VSwitch().Table(0)
		if err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		for _, name := range steer.Names() {
			var cid, s int
			if k, _ := fmt.Sscanf(name, "vsw-%d-%d", &cid, &s); k != 2 {
				continue
			}
			a, ok := c.assign.get(core.ClassID(cid))
			if !ok || s >= len(a.subs) {
				return fmt.Errorf("invariant: stale rule %q at host %d (sub-class gone)", name, v)
			}
			visits := false
			for _, hv := range subclassHosts(a.Class, a.subs[s].hops) {
				if hv == v {
					visits = true
					break
				}
			}
			if !visits {
				return fmt.Errorf("invariant: stale rule %q at host %d (sub-class does not visit it)", name, v)
			}
		}
	}
	// Portion ledger: what the installed base sub-classes charge, and
	// nothing else.
	ledger := c.assign.portions()
	planned := make(map[vnf.ID]float64, len(ledger))
	for id := range ledger {
		planned[id] = 0
	}
	for _, a := range c.assign.sorted() {
		a.charge(planned, 1)
	}
	for _, id := range sortedKeys(planned) {
		got, want := ledger[id], planned[id]
		if math.Abs(got-want) > weightTol*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("invariant: instance %s carries portion %v in the ledger, but its base sub-classes plan %v", id, got, want)
		}
	}
	// Core accounting: the ledger holds cores only for launches the
	// orchestrator still manages (or lost to a crash whose abort callback
	// is still in flight).
	for id, l := range d.launches {
		if !c.orch.Known(id) && !c.orch.Crashed(id) {
			return fmt.Errorf("invariant: launched instance %s holds %d cores but is unknown to the orchestrator", id, l.cores)
		}
	}
	if extra := d.ExtraCores(); d.peakExtra < extra {
		return fmt.Errorf("invariant: ExtraCores=%d above PeakExtraCores=%d", extra, d.peakExtra)
	}
	// Pending spawn slots: the exactly-one-callback contract means every
	// occupied slot has its callback still scheduled.
	for key, id := range d.pending {
		if !c.orch.InFlight(id) {
			return fmt.Errorf("invariant: pending spawn slot (switch %d, %v) orphaned: %s has no callback in flight", key.v, key.nf, id)
		}
	}
	// Pool discipline: each instance pooled once, in its NF's bucket
	// (mid-reconfiguration and crash-killed instances excepted).
	pooled := make(map[vnf.ID]bool)
	for v, byNF := range c.instPool {
		for nf, insts := range byNF {
			for _, inst := range insts {
				if pooled[inst.ID()] {
					return fmt.Errorf("invariant: instance %s pooled more than once", inst.ID())
				}
				pooled[inst.ID()] = true
				if inst.NF() != nf && !c.orch.InFlight(inst.ID()) && inst.State() != vnf.StateFailed {
					return fmt.Errorf("invariant: instance %s (NF %v) pooled under %v at switch %d", inst.ID(), inst.NF(), nf, v)
				}
			}
		}
	}
	return nil
}

// checkRoutes reports the first switch of a's path whose routing table
// lacks the route toward a's destination. It allocates nothing while the
// routes stand.
func (c *Controller) checkRoutes(a *Assignment) error {
	path := a.Class.Path
	route := c.switches[path[len(path)-1]].route
	for _, v := range path {
		routing, err := c.switches[v].Pipeline.Table(TableRouting)
		if err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		if !routing.Has(route) {
			return fmt.Errorf("invariant: class %d finds no %q at switch %d of its path", a.Class.ID, route, v)
		}
	}
	return nil
}
