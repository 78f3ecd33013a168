package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/trace"
)

// IncrementalEngine is the continuous re-optimization variant of the
// Optimization Engine: it solves the placement LP for a *sequence* of
// traffic snapshots over a fixed class universe, carrying the simplex
// basis from one snapshot to the next.
//
// The standard model (buildModel) cannot warm-start across snapshots:
// per-class rates enter Eq. (5) as constraint COEFFICIENTS, so a rate
// change rewrites the matrix and invalidates the basis. This engine uses
// an equivalent parametric reformulation in absolute flow:
//
//	x_{h,j}^i = T_h · d_{h,j}^i   (Mbps of class h processed at hop i,
//	                               chain position j)
//	r_h                           (class h's rate, a variable pinned by
//	                               bounds: lo = hi = T_h)
//
//	Eq. (4):  Σ_i x_{h,j}^i − r_h = 0          (per class, position)
//	Eq. (3):  prefix sums of x dominate         (rate-free: multiply the
//	          the next position's prefix sums    d form by T_h ≥ 0)
//	Eq. (5):  Σ x − capacity·q ≤ 0              (coefficients all 1)
//	Eq. (6):  unchanged (q only)
//
// Every coefficient is now rate-independent; a new snapshot is purely a
// change of the r bounds, so Solver.ReSolve's dual simplex repairs the
// previous optimal basis in a few pivots instead of solving cold.
//
// Both formulations are built from the same steps in model.go. The
// consolidation bias on q (see addInstanceVars) is computed once from the
// universe's base rates and kept across snapshots: it only breaks ties
// among equal-instance-count optima, and a stable bias keeps successive
// placements close together — exactly what a delta-rule commit wants.
//
// The engine is not safe for concurrent use.
type IncrementalEngine struct {
	prob   *Problem
	opts   IncrementalOptions
	md     *model
	solver *lp.Solver
	rVar   []lp.VarID // per class index, bounds pin the snapshot rate
	solved bool
}

// IncrementalOptions tunes the incremental engine.
type IncrementalOptions struct {
	// MaxRepairRounds bounds the round-and-repair loop (default 25).
	MaxRepairRounds int
	// Tracer, when non-nil, journals one lp.solve span per Place call
	// plus an lp.resolve event per repair re-solve.
	Tracer *trace.Recorder
}

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

// NewIncrementalEngine builds the parametric model over the problem's
// class universe. The per-class RateMbps values in prob seed the
// consolidation bias; the actual rates of each snapshot are supplied to
// Place.
func NewIncrementalEngine(prob *Problem, opts IncrementalOptions) (*IncrementalEngine, error) {
	if opts.MaxRepairRounds <= 0 {
		opts.MaxRepairRounds = 25
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if len(prob.AntiAffinity) > 0 {
		return nil, fmt.Errorf("core: incremental engine does not support anti-affinity constraints (use Engine.Solve)")
	}
	md, rVar, err := buildParametricModel(prob)
	if err != nil {
		return nil, err
	}
	return &IncrementalEngine{
		prob:   prob,
		opts:   opts,
		md:     md,
		solver: lp.NewSolver(md.m),
		rVar:   rVar,
	}, nil
}

// Problem returns the class universe the engine was built over.
func (e *IncrementalEngine) Problem() *Problem { return e.prob }

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
	if e.opts.Tracer.Enabled() {
		sp := e.opts.Tracer.Begin(trace.Ev(trace.KindLPSolve).WithVal(int64(len(rates))))
		defer func() { sp.End(int64(st.Pivots), err) }()
	}
	// Retarget the parametric bounds: pin each r to the snapshot rate and
	// lift the previous snapshot's repair caps — except caps the basis is
	// resting on. Hardware does not grow between snapshots, so a binding
	// cap is still true; and relaxing it to +Inf would evict the variable
	// from its resting bound and destroy the dual feasibility the warm
	// start needs (the reason repair-heavy topologies used to fall back
	// cold on every pass).
	changes := make([]lp.BoundChange, 0, len(e.rVar)+len(e.md.qKeys))
	for ci, c := range e.prob.Classes {
		r := rates[c.ID]
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, st, fmt.Errorf("core: class %d has invalid rate %v", c.ID, r)
		}
		changes = append(changes, lp.BoundChange{Var: e.rVar[ci], Lo: r, Hi: r})
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
		lift := make([]lp.BoundChange, 0, len(e.md.qKeys))
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

	// Round-and-repair, warm throughout: the same search Engine.Solve
	// runs, over this engine's long-lived solver.
	r := &repairer{
		md: e.md, solver: e.solver,
		maxRounds: e.opts.MaxRepairRounds, tracer: e.opts.Tracer,
	}
	counts, err := r.repair(sol)
	st.Pivots += r.iters
	st.DualPivots += r.dualIters
	st.RepairRounds = r.rounds
	if err != nil {
		if errors.Is(err, errRepairAbort) {
			e.solved = false
		}
		return nil, st, err
	}

	pl = &Placement{
		Counts:     counts,
		Dist:       extractDist(e.md, &r.sol, func(c Class) bool { return rates[c.ID] > 0 }),
		SolveTime:  time.Since(start),
		Iterations: st.Pivots,
		Method:     "lp-parametric",
	}
	pl.Objective = pl.TotalInstances()
	st.SolveTime = pl.SolveTime
	return pl, st, nil
}
