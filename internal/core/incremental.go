package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/apple-nfv/apple/internal/lp"
)

// IncrementalEngine is the continuous re-optimization variant of the
// Optimization Engine: it solves the placement LP for a *sequence* of
// traffic snapshots over a fixed class universe, carrying the simplex
// basis from one snapshot to the next.
//
// It builds the one placement model (model.go) in the Mbps unit: every
// coefficient is rate-free and each class's rate is a column pinned by its
// bounds, so a new snapshot is a bound change, and Solver.ReSolve's dual
// simplex repairs the previous optimal basis in a few pivots instead of
// solving cold. The round-and-repair tail, anti-affinity evictions
// included, is Engine's. The consolidation bias on q (see planKeys) is
// computed once from the universe's base rates and kept across snapshots:
// it only breaks ties among equal-instance-count optima, and a stable bias
// keeps successive placements close together — exactly what a delta-rule
// commit wants.
//
// The engine is not safe for concurrent use.
type IncrementalEngine struct {
	prob   *Problem
	md     *model
	solver *lp.Solver
	solved bool
	// bounds is Place's list of bound changes, sized for every r and q
	// and kept from snapshot to snapshot: its retargeting, then its
	// lifting of every cap.
	bounds []lp.BoundChange
}

// IncrementalOptions tunes the incremental engine. It has no settable
// field: the repair loop takes the defaults Engine does.
type IncrementalOptions struct{}

// PlaceStats instruments one Place call. Pivot counts are deterministic
// for a fixed problem and snapshot sequence, which makes them the right
// CI gate for "warm ≪ cold" (wall times also reported, but noisy).
type PlaceStats struct {
	// Warm reports whether the solve reused the previous snapshot's
	// basis (false on the first Place and after a failed solve).
	Warm bool
	// WarmAccepted reports whether the dual simplex actually repaired
	// the carried basis, as opposed to rejecting it and solving cold.
	WarmAccepted bool
	// Pivots totals simplex pivots across the solve and all repair
	// re-solves; DualPivots is the dual-simplex share.
	Pivots     int
	DualPivots int
	// RepairRounds counts round-and-repair iterations.
	RepairRounds int
	// SolveTime is the wall-clock time of the whole Place call.
	SolveTime time.Duration
}

// NewIncrementalEngine builds the placement model, in Mbps, over the
// problem's class universe. The per-class RateMbps values in prob seed the
// consolidation bias; the actual rates of each snapshot are supplied to
// Place.
func NewIncrementalEngine(prob *Problem, _ IncrementalOptions) (*IncrementalEngine, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	md, err := buildModel(prob, nil, mbpsUnit)
	if err != nil {
		return nil, err
	}
	return &IncrementalEngine{
		prob: prob, md: md, solver: lp.NewSolver(md.m),
		bounds: make([]lp.BoundChange, 0, len(md.rVar)+len(md.qKeys)),
	}, nil
}

// Place solves the snapshot whose per-class rates are given and returns
// a placement over the classes with positive rate. Classes missing from
// rates (or mapped to 0) are inactive this snapshot: they consume no
// capacity and appear in neither Counts nor Dist. Negative, NaN or Inf
// rates are rejected.
//
// The first call solves cold; every further call warm-starts from the
// previous basis (falling back to a cold solve automatically if the
// basis is rejected).
func (e *IncrementalEngine) Place(rates map[ClassID]float64) (pl *Placement, st PlaceStats, err error) {
	start := time.Now()
	// Retarget the bounds: pin each r to the snapshot rate and
	// lift the previous snapshot's repair caps — except caps the basis is
	// resting on. Hardware does not grow between snapshots, so a binding
	// cap is still true; and relaxing it to +Inf would evict the variable
	// from its resting bound and destroy the dual feasibility the warm
	// start needs (the reason repair-heavy topologies used to fall back
	// cold on every pass).
	changes := e.bounds[:0]
	for ci, c := range e.prob.Classes {
		r := rates[c.ID]
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, st, fmt.Errorf("core: class %d has invalid rate %v", c.ID, r)
		}
		changes = append(changes, lp.BoundChange{Var: e.md.rVar[ci], Lo: r, Hi: r})
	}
	kept := 0
	for _, key := range e.md.qKeys {
		qv := e.md.qVar[key]
		if e.solver.RestingAtUpper(qv) {
			kept++
			continue
		}
		changes = append(changes, lp.BoundChange{Var: qv, Lo: 0, Hi: math.Inf(1)})
	}
	e.bounds = changes
	if err := e.solver.ApplyBounds(changes); err != nil {
		return nil, st, fmt.Errorf("core: %w", err)
	}

	st.Warm = e.solved && e.solver.HasBasis()
	var sol lp.Solution
	if st.Warm {
		sol, err = e.solver.ReSolve()
	} else {
		sol, err = e.solver.Solve()
	}
	recordSolve(e.md.m, e.solver, &sol, st.Warm)
	st.Pivots = sol.Iterations
	st.DualPivots = sol.DualIterations
	st.WarmAccepted = sol.WarmStarted
	if err != nil && kept > 0 && errors.Is(err, lp.ErrInfeasible) {
		// The carried caps over-constrain this snapshot (demand moved onto
		// capped switches). Lift them all and solve cold — correctness
		// first, the next pass warm-starts again.
		lift := e.bounds[:0]
		for _, key := range e.md.qKeys {
			lift = append(lift, lp.BoundChange{Var: e.md.qVar[key], Lo: 0, Hi: math.Inf(1)})
		}
		if aerr := e.solver.ApplyBounds(lift); aerr != nil {
			return nil, st, fmt.Errorf("core: %w", aerr)
		}
		st.Warm = false
		st.WarmAccepted = false
		sol, err = e.solver.Solve()
		recordSolve(e.md.m, e.solver, &sol, false)
		st.Pivots += sol.Iterations
	}
	if err != nil {
		e.solved = false
		return nil, st, fmt.Errorf("core: incremental optimization failed: %w", err)
	}
	e.solved = true

	// Round-and-repair, warm throughout, over this engine's long-lived
	// solver.
	r := &repairer{
		md: e.md, solver: e.solver, maxEvicts: defaultAffinityRounds,
	}
	pl, err = r.place(sol, func(c Class) bool { return rates[c.ID] > 0 })
	st.Pivots += r.iters
	st.DualPivots += r.dualIters
	st.RepairRounds = r.rounds
	if err != nil {
		if errors.Is(err, errRepairAbort) {
			e.solved = false
		}
		return nil, st, err
	}
	st.SolveTime = time.Since(start)
	pl.SolveTime, pl.Iterations, pl.Method = st.SolveTime, st.Pivots, "lp-parametric"
	return pl, st, nil
}
