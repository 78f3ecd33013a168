package controller

// Continuous re-optimization: apply a fresh Optimization Engine placement
// to a controller that already has an older generation of the same class
// set installed, touching only the rules that actually have to move.
// This is the online counterpart of InstallPlacement — instead of
// assuming an empty data plane it diffs the installed assignments against
// the new placement, classifies each class as unchanged / rate-only /
// update / add / remove, and commits the resulting delta through one
// make-before-break RuleTxn. Zero transient violations: at every class
// boundary the audit hook (CheckInvariants in the harnesses) sees a
// consistent data plane, and any failure unwinds to the previous
// generation bit-for-bit.

import (
	"fmt"
	"math"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// DefaultRateTolerance is the relative rate drift below which a class
// whose sub-class split did not move is left entirely untouched.
const DefaultRateTolerance = 0.05

// ReoptOptions tunes ReOptimize.
type ReoptOptions struct {
	// Verify runs enforcement probes for every class whose rules changed.
	Verify bool
	// Audit runs at every class boundary of the commit (see TxnOptions).
	Audit func() error
	// RateTolerance overrides DefaultRateTolerance; negative disables the
	// unchanged short-circuit entirely.
	RateTolerance float64
	// Reap decommissions instances left unreferenced and idle after the
	// commit, down to the placement's instance counts.
	Reap bool
}

// ReoptReport summarizes one committed re-optimization pass.
type ReoptReport struct {
	// Per-class delta classification.
	Added, Removed, Updated, RateOnly, Unchanged int
	// Flow-table churn the commit performed.
	RulesInstalled, RulesRemoved int
	// Instance churn: provisioned before the commit, reaped after it.
	Provisioned, Reaped int
}

// ClassesChanged counts the classes whose rules moved.
func (r *ReoptReport) ClassesChanged() int { return r.Added + r.Removed + r.Updated }

// ReOptimize cuts the controller over from its installed assignment
// generation to a new placement. Per-class deltas are staged and the
// instances the new placement needs are provisioned; then every delta
// commits inside a single rule transaction (adds, then make-before-break
// updates, then removals); instances the new generation no longer
// references are reaped only after the commit succeeds, because
// decommissioning is not undoable. On error the transaction unwinds
// everything — including the freshly provisioned instances — and the
// previous generation keeps running untouched.
func (c *Controller) ReOptimize(prob *core.Problem, pl *core.Placement, opts ReoptOptions) (*ReoptReport, error) {
	if prob == nil || pl == nil {
		return nil, fmt.Errorf("controller: nil problem or placement")
	}
	tol := opts.RateTolerance
	if tol == 0 {
		tol = DefaultRateTolerance
	}
	// Sized for one delta per class of the problem: staging a day's
	// rate-only refreshes must not regrow the slice and the pre-image map
	// class by class.
	txn := c.begin(len(prob.Classes))

	// Phase 1 — classify per-class deltas and stage them. Nothing is
	// touched yet, so an error here needs no unwind.
	report := &ReoptReport{}
	inPlacement := make(map[core.ClassID]bool, len(prob.Classes))
	for _, cl := range prob.Classes {
		inPlacement[cl.ID] = true
		// The placement may have selected a partial-order chain variant;
		// its Dist axes follow that chain, so the staged class must too.
		cl.Chain = pl.ChainFor(cl)
		dist, ok := pl.Dist[cl.ID]
		if !ok {
			return nil, fmt.Errorf("controller: class %d missing from placement", cl.ID)
		}
		old, installed := c.assign.get(cl.ID)
		if !installed {
			txn.StageInstall(cl, dist)
			report.Added++
			continue
		}
		// A changed chain is always a full cutover: the installed steering
		// rules encode the old NF sequence hop by hop, so even a split
		// that compiles to the same sub-class shape (same hops, same
		// portions — e.g. a one-host [firewall] becoming a one-host [ids])
		// enforces the wrong policy if left in place. Rate-only refresh
		// and the unchanged short-circuit only apply to same-chain deltas.
		if !old.Class.Chain.Equal(cl.Chain) {
			txn.StageUpdate(cl, dist)
			report.Updated++
			continue
		}
		same, err := c.sameSplit(old, cl, dist)
		if err != nil {
			return nil, err
		}
		rateDrift := relDrift(old.Class.RateMbps, cl.RateMbps)
		switch {
		case same && tol >= 0 && rateDrift < tol:
			report.Unchanged++
		case same:
			txn.StageRefresh(cl)
			report.RateOnly++
		default:
			txn.StageUpdate(cl, dist)
			report.Updated++
		}
	}
	for _, id := range c.assign.ids() {
		if !inPlacement[id] {
			txn.StageRemove(id)
			report.Removed++
		}
	}

	// Phase 2 — provision up to the placement's instance counts, tracked
	// in the transaction so an unwind cancels them.
	txn.open()
	var err error
	if report.Provisioned, err = c.provisionTo(pl, txn, false); err != nil {
		txn.unwind(err)
		return nil, err
	}

	// Phase 3 — commit or unwind.
	if err := txn.Commit(TxnOptions{Verify: opts.Verify, Audit: opts.Audit}); err != nil {
		return nil, err
	}
	report.RulesInstalled = txn.Installed()
	report.RulesRemoved = txn.Removed()

	// Phase 4 — reap-after-commit: decommissioning is irreversible, so
	// idle instances are only released once the new generation is live.
	if opts.Reap {
		report.Reaped = c.reapIdle(pl)
	}

	metrics.Reopt.Snapshots.Add(1)
	metrics.Reopt.ClassesAdded.Add(int64(report.Added))
	metrics.Reopt.ClassesRemoved.Add(int64(report.Removed))
	metrics.Reopt.ClassesUpdated.Add(int64(report.Updated))
	metrics.Reopt.ClassesRateOnly.Add(int64(report.RateOnly))
	metrics.Reopt.ClassesUnchanged.Add(int64(report.Unchanged))
	metrics.Reopt.RulesTouched.Add(int64(report.RulesInstalled + report.RulesRemoved))
	if c.tracer.Enabled() {
		c.tracer.Emit(trace.Ev(trace.KindReoptSnapshot).WithVal(int64(report.ClassesChanged())))
	}
	return report, nil
}

// provisionTo places instances, in sorted (switch, NF) order, until every
// bucket holds at least the placement's count, recording each in the
// transaction. Returns how many instances were started. With strict set
// (the proactive install) any placement failure is an error; otherwise
// (re-optimization) a bucket that already has an instance may stay short.
func (c *Controller) provisionTo(pl *core.Placement, txn *RuleTxn, strict bool) (int, error) {
	placed := 0
	for _, v := range sortedKeys(pl.Counts) {
		byNF := pl.Counts[v]
		for _, nf := range sortedKeys(byNF) {
			for len(c.instPool[v][nf]) < byNF[nf] {
				inst, h, err := c.orch.PlaceNow(nf, v)
				if err != nil {
					// Finite hardware meets make-before-break: the old
					// generation keeps its cores until the commit, so at
					// peak the host may not fit the full new count yet. A
					// bucket that already has an instance can run the new
					// plan oversubscribed (the Dynamic Handler absorbs the
					// transient); only an empty bucket is fatal.
					if !strict && len(c.instPool[v][nf]) > 0 {
						break
					}
					return placed, fmt.Errorf("controller: placing %v at %d: %w", nf, v, err)
				}
				txn.provisioned = append(txn.provisioned, inst.ID())
				c.poolAdd(v, nf, inst)
				if _, err := h.PortOf(inst.ID()); err != nil {
					return placed, fmt.Errorf("controller: %w", err)
				}
				placed++
			}
		}
	}
	return placed, nil
}

// reapIdle cancels pooled instances no installed assignment references
// and whose planned load is zero, down to the placement's counts. Runs
// only after a successful commit.
func (c *Controller) reapIdle(pl *core.Placement) int {
	referenced := c.assign.referenced(len(c.instPortion))
	reaped := 0
	for _, v := range sortedKeys(c.instPool) {
		byNF := c.instPool[v]
		for _, nf := range sortedKeys(byNF) {
			insts := byNF[nf]
			over := len(insts) - pl.Counts[v][nf]
			var victims []vnf.ID
			for i := len(insts) - 1; i >= 0 && over > len(victims); i-- {
				id := insts[i].ID()
				if referenced[id] || math.Abs(c.instPortion[id]) > 1e-9 {
					continue
				}
				victims = append(victims, id)
			}
			for _, id := range victims {
				_ = c.orch.Cancel(id)
				c.dropFromPool(id, nil)
				reaped++
			}
		}
	}
	return reaped
}

// sameSplit reports whether the placement's distribution for cl compiles
// to the same sub-class shape (hops and quantized portions) the installed
// assignment already uses — in which case the class's rules would emit
// identically and only bookkeeping may need to move.
func (c *Controller) sameSplit(old *Assignment, cl core.Class, dist [][]float64) (bool, error) {
	subs, err := core.Subclasses(cl, dist)
	if err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	expanded, err := expandForCapacity(cl, subs)
	if err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	if len(expanded) != len(old.Subclasses) {
		return false, nil
	}
	for i := range expanded {
		if quantPortion(expanded[i].Portion) != quantPortion(old.Subclasses[i].Portion) {
			return false, nil
		}
		oh, nh := old.Subclasses[i].Hops, expanded[i].Hops
		if len(oh) != len(nh) {
			return false, nil
		}
		for j := range nh {
			if oh[j] != nh[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// quantPortion snaps a portion onto the splitBits rule-emission grid —
// portions that land on the same grid cell compile to identical
// classification rules.
func quantPortion(p float64) int {
	return int(math.Round(p * float64(int(1)<<splitBits)))
}

// relDrift is |a−b| relative to the larger magnitude (0 when both are 0).
func relDrift(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
