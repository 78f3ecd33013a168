package lp

// Warm-start support for cross-snapshot re-solves. A parametric model
// (one whose successive instances differ only in variable bounds, not in
// constraint coefficients) can carry its simplex basis from one solve to
// the next: tighten or relax the bounds, run the dual simplex from the
// previous optimal basis, and converge in a handful of pivots instead of
// re-deriving the basis from scratch. This file provides the small API
// the continuous re-optimization loop needs on top of Solver.ReSolve.

// BoundChange retargets one variable's bounds between solves. Setting
// Lo == Hi pins the variable — the idiom the incremental engine uses to
// feed per-class traffic rates into the model as fixed variables rather
// than constraint coefficients.
type BoundChange struct {
	Var VarID
	Lo  float64
	Hi  float64
}

// ApplyBounds applies a batch of bound changes to the model and, when a
// basis is live, to the solver state in place so the carried basis stays
// consistent. Changes are applied in order; the first
// invalid change aborts the batch (earlier changes stay applied — the
// caller is expected to re-solve or rebuild on error, not to continue).
func (s *Solver) ApplyBounds(changes []BoundChange) error {
	for _, ch := range changes {
		if err := s.SetBounds(ch.Var, ch.Lo, ch.Hi); err != nil {
			return err
		}
	}
	return nil
}

// HasBasis reports whether the solver holds a usable basis from a prior
// successful Solve, i.e. whether the next ReSolve can warm-start. A
// fresh solver, or one whose last solve failed, has no basis.
func (s *Solver) HasBasis() bool { return s.t != nil && s.t.valid }

// RestingAtUpper reports whether v is currently nonbasic at its upper
// bound in the live basis (always false without one). A variable
// resting at a finite upper bound with a favorable reduced cost is
// exactly the case a caller must NOT relax to +Inf between re-solves: a
// nonbasic variable cannot rest at an infinite bound, so the relaxation
// would force it to its lower bound and break the dual feasibility the
// warm start depends on.
func (s *Solver) RestingAtUpper(v VarID) bool {
	if !s.HasBasis() {
		return false
	}
	j := int(v)
	if j < 0 || j >= len(s.t.inBasis) {
		return false
	}
	return !s.t.inBasis[j] && s.t.atUpper[j]
}
