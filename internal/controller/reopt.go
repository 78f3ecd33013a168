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
	"slices"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// rateTolerance is the relative rate drift below which a class whose
// sub-class split did not move is left entirely untouched
// (TestReOptimizeRateToleranceBoundary pins it).
const rateTolerance = 0.05

// ReoptOptions tunes ReOptimize.
type ReoptOptions struct {
	// Verify runs enforcement probes for every class whose rules changed.
	Verify bool
	// Audit runs at every class boundary of the commit (see TxnOptions).
	Audit func() error
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
	// Phase 1 — classify every class against what is installed. Nothing
	// is touched yet, so an error here needs no unwind. Verdicts go to
	// controller-owned scratch, so the transaction is sized to the deltas
	// before any is staged.
	report := &ReoptReport{}
	sc := &c.reopt
	sc.verdicts = sc.verdicts[:0]
	sc.kept = sc.kept[:0]
	for _, cl := range prob.Classes {
		// The placement may have selected a partial-order chain variant;
		// its Dist axes follow that chain, so the staged class must too.
		cl.Chain = pl.ChainFor(cl)
		dist, ok := pl.Dist[cl.ID]
		if !ok {
			return nil, fmt.Errorf("controller: class %d missing from placement", cl.ID)
		}
		v, err := c.classify(cl, dist)
		if err != nil {
			return nil, err
		}
		switch v {
		case reoptAdd:
			report.Added++
		case reoptUpdate:
			report.Updated++
		case reoptRefresh:
			report.RateOnly++
		case reoptUnchanged:
			report.Unchanged++
		}
		if v != reoptAdd {
			sc.kept = append(sc.kept, cl.ID)
		}
		sc.verdicts = append(sc.verdicts, v)
	}
	// Every installed class the placement does not keep is removed, in
	// class order.
	slices.Sort(sc.kept)
	sc.kept = slices.Compact(sc.kept)
	var removed []core.ClassID
	if len(sc.kept) < c.assign.len() {
		for _, a := range c.assign.sorted() {
			if _, keep := slices.BinarySearch(sc.kept, a.Class.ID); !keep {
				removed = append(removed, a.Class.ID)
			}
		}
	}
	report.Removed = len(removed)

	// Stage in class order: installs, updates and refreshes, then removals.
	txn := c.Begin()
	txn.grow(report.Added+report.Updated+report.Removed, report.RateOnly)
	for i, cl := range prob.Classes {
		cl.Chain = pl.ChainFor(cl)
		switch sc.verdicts[i] {
		case reoptAdd:
			txn.StageInstall(cl, pl.Dist[cl.ID])
		case reoptUpdate:
			txn.StageUpdate(cl, pl.Dist[cl.ID])
		case reoptRefresh:
			txn.StageRefresh(cl.ID, cl.RateMbps)
		}
	}
	for _, id := range removed {
		txn.StageRemove(id)
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

// reapIdle cancels pooled instances no installed assignment references,
// down to the placement's counts. Runs only after a successful commit.
func (c *Controller) reapIdle(pl *core.Placement) int {
	referenced := c.instScratch()
	c.assign.referencedInto(referenced)
	reaped := 0
	for _, v := range sortedKeys(c.instPool) {
		byNF := c.instPool[v]
		for _, nf := range sortedKeys(byNF) {
			insts := byNF[nf]
			over := len(insts) - pl.Counts[v][nf]
			var victims []vnf.ID
			for i := len(insts) - 1; i >= 0 && over > len(victims); i-- {
				id := insts[i].ID()
				if _, ok := referenced[id]; ok {
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

// reoptVerdict is Phase 1's classification of one class of the problem.
type reoptVerdict uint8

const (
	reoptAdd       reoptVerdict = iota // not installed: StageInstall
	reoptUpdate                        // full make-before-break cutover: StageUpdate
	reoptRefresh                       // same rules, new rate: StageRefresh
	reoptUnchanged                     // nothing to stage
)

// reoptScratch is ReOptimize's working memory, kept on the controller and
// reused from pass to pass so that classifying a class allocates nothing.
// Confined to the single writer.
type reoptScratch struct {
	coupling core.Coupling  // sameSplit's sub-classes of the class at hand
	verdicts []reoptVerdict // per class of the problem, in order
	kept     []core.ClassID // installed classes the placement keeps
}

// classify decides how cl, whose placement distribution is dist, moves
// from what is installed.
func (c *Controller) classify(cl core.Class, dist [][]float64) (reoptVerdict, error) {
	old, installed := c.assign.get(cl.ID)
	if !installed {
		return reoptAdd, nil
	}
	// A changed chain or path is always a full cutover: the installed
	// steering rules encode the old NF sequence hop by hop, and the old
	// switches, so even a split that compiles to the same sub-class shape
	// (same hop indices, same portions — e.g. a one-host [firewall]
	// becoming a one-host [ids], or the same class moved one switch down
	// a line) enforces the wrong policy, or none, if left in place.
	// Rate-only refresh and the unchanged short-circuit only apply to
	// deltas that keep both.
	if !old.Class.Chain.Equal(cl.Chain) || !slices.Equal(old.Class.Path, cl.Path) {
		return reoptUpdate, nil
	}
	same, err := c.sameSplit(old, cl, dist)
	switch {
	case err != nil:
		return 0, err
	case !same:
		return reoptUpdate, nil
	case relDrift(old.Class.RateMbps, cl.RateMbps) < rateTolerance:
		return reoptUnchanged, nil
	default:
		return reoptRefresh, nil
	}
}

// sameSplit reports whether the placement's distribution for cl compiles
// to the same sub-class shape (hops and quantized portions) the installed
// assignment already uses — in which case the class's rules would emit
// identically and only bookkeeping may need to move. It walks the
// capacity expansion of the coupling against the installed sub-classes
// without building it, and counts it against the tag budget as
// buildAssignment would: a split that cannot be installed is an error,
// same or not.
func (c *Controller) sameSplit(old *Assignment, cl core.Class, dist [][]float64) (bool, error) {
	subs, err := c.reopt.coupling.Split(cl, dist)
	if err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	same, n := true, 0
	for _, sub := range subs {
		k, err := capacitySlices(cl, sub.Portion)
		if err != nil {
			return false, fmt.Errorf("controller: %w", err)
		}
		q := quantPortion(sub.Portion / float64(k))
		for s := n; same && s < n+k; s++ {
			same = s < len(old.subs) &&
				quantPortion(old.subs[s].portion) == q &&
				slices.Equal(old.subs[s].hops, sub.Hops)
		}
		n += k
	}
	if err := checkTagBudget(cl.ID, n); err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	return same && n == len(old.subs), nil
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
