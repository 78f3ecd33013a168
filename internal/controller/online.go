package controller

import (
	"fmt"
	"math"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// AddClass places a new traffic class online, without re-running the
// global Optimization Engine — the online algorithm the paper defers to
// future work (§IV: "Online algorithms are for our future research").
//
// The placement is greedy against live state: for every chain position it
// packs the class's rate onto existing instances' planned headroom along
// the path (respecting the Eq. 3 dominance order), and provisions new
// instances through the Resource Orchestrator only for what is left.
// Rules are generated exactly as for globally optimized classes, so
// enforcement, tagging, and fast failover all apply to online classes
// too.
//
// The install is a rule transaction of one staged add — a batch of one
// through the class-install pipeline: if any stage fails — rule emission,
// a TCAM install mid-batch, anything — the class is fully backed out
// (assignment, tags, partial rules, provisioned instances) and the
// controller is bit-identical to its pre-call state.
func (c *Controller) AddClass(cl core.Class) error {
	txn := c.Begin()
	txn.StageAdd(cl)
	return txn.Commit(TxnOptions{})
}

// planClass greedily places one class against live capacity and returns
// its sub-classes plus any instances provisioned along the way. On
// failure the provisioned instances are already cancelled (all-or-
// nothing).
func (c *Controller) planClass(cl core.Class, txn *RuleTxn) ([]core.Subclass, []vnf.ID, error) {
	// Eligible hops: path switches with an APPLE host.
	var hops []int
	for i, v := range cl.Path {
		if _, ok := c.hosts[v]; ok {
			hops = append(hops, i)
		}
	}
	if len(hops) == 0 {
		return nil, nil, fmt.Errorf("controller: class %d has no APPLE host on its path", cl.ID)
	}
	// Planned headroom per (switch, NF) from the instPortion bookkeeping.
	slack := func(v topology.NodeID, nf policy.NF) float64 {
		total := 0.0
		for _, inst := range c.instPool[v][nf] {
			if inst.State() != vnf.StateRunning {
				continue
			}
			if head := inst.Spec().CapacityMbps - c.instPortion[inst.ID()]; head > 0 {
				total += head
			}
		}
		return total
	}
	// Greedy dominance-respecting allocation, as in core.SolveGreedy but
	// against live capacity. Instances provisioned along the way are
	// cancelled if the class turns out to be unplaceable (all-or-nothing).
	var provisioned []vnf.ID
	fail := func(err error) error {
		c.unwindProvisioned(provisioned, txn)
		return err
	}
	dist := make([][]float64, len(cl.Path))
	for i := range dist {
		dist[i] = make([]float64, len(cl.Chain))
	}
	cumPrev := make([]float64, len(cl.Path))
	for i := range cumPrev {
		cumPrev[i] = 1
	}
	for j, nf := range cl.Chain {
		spec, err := policy.SpecOf(nf)
		if err != nil {
			return nil, nil, fail(fmt.Errorf("controller: %w", err))
		}
		remaining := 1.0
		cum := 0.0
		for _, i := range hops {
			if remaining <= 1e-12 {
				break
			}
			budget := cumPrev[i] - cum
			if budget <= 1e-12 {
				continue
			}
			take := math.Min(remaining, budget)
			v := cl.Path[i]
			// Provision new instances until the hop can absorb `take`.
			for slack(v, nf) < take*cl.RateMbps-1e-9 {
				if !spec.Resources().Fits(c.orch.Available(v)) {
					break
				}
				inst, _, err := c.orch.PlaceNow(nf, v)
				if err != nil {
					break
				}
				provisioned = append(provisioned, inst.ID())
				if c.instPool[v] == nil {
					c.instPool[v] = make(map[policy.NF][]*vnf.Instance)
				}
				c.instPool[v][nf] = append(c.instPool[v][nf], inst)
			}
			var frac float64
			if cl.RateMbps <= 1e-12 {
				if len(c.instPool[v][nf]) == 0 {
					continue
				}
				frac = take
			} else {
				frac = math.Min(take, slack(v, nf)/cl.RateMbps)
			}
			if frac <= 1e-12 {
				continue
			}
			dist[i][j] += frac
			cum += frac
			remaining -= frac
		}
		if remaining > 1e-9 {
			return nil, nil, fail(fmt.Errorf("controller: class %d position %d: %.3f of the class cannot be placed online (insufficient capacity on the path)",
				cl.ID, j, remaining))
		}
		// Normalize exactly and refresh the dominance bound.
		total := 0.0
		for i := range cl.Path {
			total += dist[i][j]
		}
		for i := range cl.Path {
			dist[i][j] /= total
		}
		acc := 0.0
		for i := range cl.Path {
			acc += dist[i][j]
			cumPrev[i] = acc
		}
	}
	subs, err := core.Subclasses(cl, dist)
	if err != nil {
		return nil, nil, fail(fmt.Errorf("controller: %w", err))
	}
	return subs, provisioned, nil
}

// dropFromPool removes a cancelled instance from the placement pools and
// the portion ledger.
func (c *Controller) dropFromPool(id vnf.ID, txn *RuleTxn) {
	for v, byNF := range c.instPool {
		for nf, insts := range byNF {
			kept := insts[:0]
			for _, inst := range insts {
				if inst.ID() != id {
					kept = append(kept, inst)
				}
			}
			// The truncated tail still aliases the dropped *Instance from
			// the shared backing array; clear it so the pool does not pin
			// cancelled instances against the garbage collector.
			clear(insts[len(kept):])
			if len(kept) == 0 {
				// An emptied bucket and a missing one behave identically,
				// but keeping the entry would make a transaction unwind
				// observably differ from the pre-transaction state.
				delete(byNF, nf)
				continue
			}
			c.instPool[v][nf] = kept
		}
	}
	c.setPortion(txn, id, 0, false)
}
