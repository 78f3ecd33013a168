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

// planClass places one class greedily against live capacity — the
// core.GreedyDist packing over the planned headroom of the running
// instances along the path — and returns its distribution plus any
// instances provisioned along the way, which on failure the caller
// cancels.
func (c *Controller) planClass(cl core.Class) ([][]float64, []vnf.ID, error) {
	// Eligible hops: path switches with an APPLE host.
	var hops []int
	for i, v := range cl.Path {
		if _, ok := c.hosts[v]; ok {
			hops = append(hops, i)
		}
	}
	// Planned headroom per (switch, NF) from the instance-portion ledger.
	slack := func(v topology.NodeID, nf policy.NF) float64 {
		total := 0.0
		for _, inst := range c.instPool[v][nf] {
			if inst.State() != vnf.StateRunning {
				continue
			}
			if head := inst.Spec().CapacityMbps - c.assign.load(inst.ID()); head > 0 {
				total += head
			}
		}
		return total
	}
	var provisioned []vnf.ID
	dist, err := core.GreedyDist(cl, hops, func(i int, nf policy.NF, take float64) float64 {
		v := cl.Path[i]
		spec, err := policy.SpecOf(nf)
		if err != nil {
			return 0
		}
		// Provision new instances through the Resource Orchestrator until
		// the hop can absorb take, and at least one: a zero-rate class
		// still needs its chain enforced.
		for len(c.instPool[v][nf]) == 0 || slack(v, nf) < take*cl.RateMbps-1e-9 {
			if !spec.Resources().Fits(c.orch.Available(v)) {
				break
			}
			inst, _, err := c.orch.PlaceNow(nf, v)
			if err != nil {
				break
			}
			provisioned = append(provisioned, inst.ID())
			c.poolAdd(v, nf, inst)
		}
		if cl.RateMbps <= 1e-12 {
			if len(c.instPool[v][nf]) == 0 {
				return 0
			}
			return take
		}
		return math.Min(take, slack(v, nf)/cl.RateMbps)
	})
	if err != nil {
		return nil, provisioned, fmt.Errorf("controller: %w", err)
	}
	return dist, provisioned, nil
}

// dropFromPool removes a cancelled instance, which no installed
// assignment references, from the placement pools and the portion ledger.
// txn is the transaction the instance was provisioned in, nil once a
// commit has finished (reaping, cancelling a failover launch) and during
// the unwind itself: the pool write happens in a transaction or after
// one, which is what txnguard reads off the parameter.
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
	c.assign.forget(id)
}
