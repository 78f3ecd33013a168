package lp

import "math"

// This file is the dense Gauss-Jordan tableau the package solved with
// before the sparse revised simplex replaced it, kept verbatim (minus the
// phase timers) as the reference the differential and fuzz tests compare
// the production engine against: same pricing, same ratio tests, same warm
// contract, a different representation of B⁻¹A.

// denseSolver is Solver over a dense tableau.
type denseSolver struct {
	model *Model
	t     *tableau
}

// newDenseSolver wraps a model. The tableau is built on the first Solve.
func newDenseSolver(m *Model) *denseSolver {
	return &denseSolver{model: m}
}

// Solve runs a cold two-phase solve, discarding any previous basis.
func (s *denseSolver) Solve() (Solution, error) {
	if len(s.model.vars) == 0 {
		return Solution{}, ErrEmptyModel
	}
	// Crossed bounds (possible via branch-and-bound tightening, which
	// bypasses SetBounds validation) make the model trivially infeasible;
	// the tableau would otherwise misread such a column as fixed.
	for _, v := range s.model.vars {
		if v.lo > v.hi {
			s.t = nil
			sol := Solution{Status: StatusInfeasible}
			return sol, solveErr(StatusInfeasible, s.model.name, 0)
		}
	}
	t, err := newTableau(s.model)
	if err != nil {
		return Solution{}, err
	}
	s.t = t
	status, it1 := t.phase1()
	sol := Solution{
		Status:           status,
		Phase1Iterations: it1,
		Iterations:       it1,
		Nodes:            1,
	}
	if status != StatusOptimal {
		// A failed tableau (mid-phase-1, artificials still basic) is not a
		// valid warm-start base; drop it so the next ReSolve goes cold.
		s.t = nil
		return sol, solveErr(status, s.model.name, it1)
	}
	status, it2 := t.optimize(t.c, false)
	sol.Phase2Iterations = it2
	sol.Iterations += it2
	sol.Status = status
	if status != StatusOptimal {
		s.t = nil
		return sol, solveErr(status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// ReSolve re-optimizes after bound changes (Solver.SetBounds/SetUpper),
// warm-starting from the current basis with the dual simplex. The basis
// stays dual feasible under any bound change, so this usually converges in
// a few pivots. When the warm start is rejected (no prior basis, dual
// infeasibility from numerical drift, or a pivot budget blow-out) the
// solver transparently falls back to a cold Solve; Solution.WarmStarted
// reports which path produced the answer. A dual-simplex infeasibility
// verdict is confirmed with a cold solve before being reported, so
// callers never act on a spurious certificate.
func (s *denseSolver) ReSolve() (Solution, error) {
	if s.t == nil {
		return s.Solve()
	}
	t := s.t
	status, dIters, ok := t.dualSimplex(dualIterBudget(t.m))
	if !ok {
		// Warm start rejected: cold solve.
		return s.Solve()
	}
	if status == StatusInfeasible {
		// Confirm the certificate from scratch; a cold solve also leaves
		// the solver in a well-defined state for the caller's next bound
		// change.
		return s.Solve()
	}
	// Primal clean-up: the dual run restores primal feasibility, and any
	// eps-level dual infeasibility left behind is mopped up here (usually
	// zero pivots).
	status, it2 := t.optimize(t.c, false)
	sol := Solution{
		Status:           status,
		DualIterations:   dIters,
		Phase2Iterations: it2,
		Iterations:       dIters + it2,
		WarmStarted:      true,
		Nodes:            1,
	}
	if status != StatusOptimal {
		s.t = nil
		return sol, solveErr(status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// SetBounds updates the bounds of v in the model and, when a tableau is
// live, in the solver state — including the basic-value bookkeeping when a
// nonbasic variable's resting bound moves.
func (s *denseSolver) SetBounds(v VarID, lo, hi float64) error {
	if err := s.model.SetBounds(v, lo, hi); err != nil {
		return err
	}
	if s.t != nil {
		s.t.setVarBounds(int(v), lo, hi)
	}
	return nil
}

// SetUpper updates only the upper bound of v (the repair-loop cap path).
func (s *denseSolver) SetUpper(v VarID, hi float64) error {
	lo, _, err := s.model.Bounds(v)
	if err != nil {
		return err
	}
	return s.SetBounds(v, lo, hi)
}

// Duals returns the row duals y = c_B·B⁻¹ of the current basis, one per
// constraint in AddConstraint order, computed on demand (nil without a
// basis). The sign convention is the one CheckCertificate documents:
// reduced costs are c − Aᵀy, so y ≤ 0 on ≤ rows and y ≥ 0 on ≥ rows of a
// minimization.
func (s *denseSolver) Duals() []float64 {
	if s.t == nil {
		return nil
	}
	return s.t.duals(s.model)
}

// finish extracts values and the objective into an optimal solution.
func (s *denseSolver) finish(sol *Solution) {
	sol.Values = s.t.extract(s.model)
	sol.Objective = 0
	for i, v := range s.model.vars {
		sol.Objective += v.obj * sol.Values[i]
	}
}

// tableau is the dense bounded-variable simplex working state:
// minimize c·x subject to Ax + Σs = b, lo ≤ x ≤ hi, with one slack per row
// (bounds [0,∞) for inequalities, [0,0] for equalities) and artificial
// columns only for rows whose slack-basis start violates the slack bounds.
// `a` is maintained as B⁻¹A by Gauss-Jordan pivoting; basic-variable
// values xB are maintained incrementally and never stored in the matrix.
type tableau struct {
	m, n int // rows, structural+slack+artificial columns
	nv   int // structural columns
	nart int // artificial columns (always the trailing ones)

	a     []float64 // m×n row-major constraint matrix, kept as B⁻¹A
	basis []int     // basic column per row
	xB    []float64 // value of the basic variable per row

	lo, hi  []float64 // per-column bounds
	atUpper []bool    // nonbasic column rests at hi (else at lo)

	c   []float64 // phase-2 costs
	art []float64 // phase-1 costs (1 on artificials)

	red     []float64 // maintained reduced-cost row
	inBasis []bool    // basic-column marks
	nz      []int32   // scratch: pivot-row nonzero columns
}

// newTableau converts the model. Structural variables start nonbasic at
// their lower bound; each row's slack absorbs the residual when it can,
// otherwise the row gets an artificial and joins phase 1.
func newTableau(m *Model) (*tableau, error) {
	nv := len(m.vars)
	nrows := len(m.cons)

	// Residual of each row at the all-at-lower-bound starting point.
	resid := make([]float64, nrows)
	for i, con := range m.cons {
		r := con.rhs
		for _, t := range con.terms {
			r -= t.Coef * m.vars[t.Var].lo
		}
		resid[i] = r
	}
	// A row needs an artificial when its slack cannot hold the residual:
	// LE wants resid ≥ 0, GE wants resid ≤ 0, EQ wants resid = 0.
	needArt := make([]bool, nrows)
	nart := 0
	for i, con := range m.cons {
		switch con.sense {
		case LE:
			needArt[i] = resid[i] < -eps
		case GE:
			needArt[i] = resid[i] > eps
		case EQ:
			needArt[i] = math.Abs(resid[i]) > eps
		}
		if needArt[i] {
			nart++
		}
	}

	n := nv + nrows + nart
	t := &tableau{
		m:       nrows,
		n:       n,
		nv:      nv,
		nart:    nart,
		a:       make([]float64, nrows*n),
		basis:   make([]int, nrows),
		xB:      make([]float64, nrows),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		c:       make([]float64, n),
		art:     make([]float64, n),
		atUpper: make([]bool, n),
		inBasis: make([]bool, n),
	}
	for j, v := range m.vars {
		t.c[j] = v.obj
		t.lo[j] = v.lo
		t.hi[j] = v.hi
	}
	artCol := nv + nrows
	for i, con := range m.cons {
		row := t.a[i*n : (i+1)*n]
		for _, term := range con.terms {
			row[int(term.Var)] += term.Coef
		}
		slack := nv + i
		sign := 1.0
		shi := math.Inf(1)
		switch con.sense {
		case GE:
			sign = -1
		case EQ:
			shi = 0
		}
		row[slack] = sign
		t.lo[slack] = 0
		t.hi[slack] = shi
		if !needArt[i] {
			sval := sign * resid[i]
			if sval < 0 {
				sval = 0 // eps-level residual noise
			}
			t.basis[i] = slack
			t.xB[i] = sval
		} else {
			tau := 1.0
			if resid[i] < 0 {
				tau = -1
			}
			row[artCol] = tau
			t.lo[artCol] = 0
			t.hi[artCol] = math.Inf(1)
			t.art[artCol] = 1
			t.basis[i] = artCol
			t.xB[i] = math.Abs(resid[i])
			artCol++
		}
	}
	// Canonicalize: the tableau is maintained as B⁻¹A, so each row's basic
	// column must be a unit vector. GE slacks (coefficient −1) and negative
	// artificials need their rows scaled by −1.
	for i, bj := range t.basis {
		t.inBasis[bj] = true
		row := t.a[i*n : (i+1)*n]
		if piv := row[bj]; piv != 1 {
			inv := 1 / piv
			for jj := range row {
				row[jj] *= inv
			}
			row[bj] = 1
		}
	}
	return t, nil
}

// realCols is the number of non-artificial columns.
func (t *tableau) realCols() int { return t.n - t.nart }

// value returns the resting value of a nonbasic column.
func (t *tableau) value(j int) float64 {
	if t.atUpper[j] {
		return t.hi[j]
	}
	return t.lo[j]
}

// phase1 drives the artificial objective to zero (when artificials exist),
// evicts leftover basic artificials and pins every artificial at zero so
// it can never re-enter.
func (t *tableau) phase1() (Status, int) {
	if t.nart == 0 {
		return StatusOptimal, 0
	}
	st, iters := t.optimize(t.art, true)
	if st == StatusUnbounded {
		// The phase-1 objective is bounded below by zero, so an unbounded
		// verdict can only be eps-level noise; treat it as a solver failure
		// rather than a statement about the model.
		return StatusIterLimit, iters
	}
	if st != StatusOptimal {
		return st, iters
	}
	infeas := 0.0
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.realCols() {
			infeas += t.xB[i]
		}
	}
	if infeas > 1e-6 {
		return StatusInfeasible, iters
	}
	t.evictArtificials()
	for k := t.realCols(); k < t.n; k++ {
		t.hi[k] = 0 // fixed: never re-enters pricing
	}
	return StatusOptimal, iters
}

// evictArtificials pivots basic artificial variables (at value ~0) out
// where a real column with a usable pivot exists. Rows that are all-zero
// over real columns are redundant; their artificial stays basic at 0.
func (t *tableau) evictArtificials() {
	real := t.realCols()
	for i := 0; i < t.m; i++ {
		if t.basis[i] < real {
			continue
		}
		row := t.a[i*t.n : (i+1)*t.n]
		pivotCol := -1
		for j := 0; j < real; j++ {
			if math.Abs(row[j]) > eps {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.replaceBasic(i, pivotCol, 0, false)
		}
	}
}

// refreshRed recomputes the reduced-cost row r_j = c_j − c_B·B⁻¹A_j from
// the current tableau for the given cost vector.
func (t *tableau) refreshRed(c []float64) {
	if t.red == nil {
		t.red = make([]float64, t.n)
	}
	copy(t.red, c)
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i*t.n : (i+1)*t.n]
		for j, aij := range row {
			if aij != 0 {
				t.red[j] -= cb * aij
			}
		}
	}
}

// optimize runs bounded-variable primal simplex pivots for the cost vector
// c. In phase 2 artificial columns are never priced in. A nonbasic column
// at its lower bound enters when its reduced cost is negative; one at its
// upper bound enters (moving down) when its reduced cost is positive. The
// ratio test limits the move by the first basic variable to hit either of
// its bounds, or by the entering variable's own opposite bound — the
// latter is a bound flip that changes no basis at all.
func (t *tableau) optimize(c []float64, phase1 bool) (Status, int) {
	cols := t.n
	if !phase1 {
		cols = t.realCols()
	}
	t.refreshRed(c)
	refreshed := false
	iters := 0
	for {
		if iters >= hardIterLimit {
			return StatusIterLimit, iters
		}
		useBland := iters >= dantzigLimit
		// Price from the maintained reduced-cost row.
		enter := -1
		dir := 1.0
		best := eps
		for j := 0; j < cols; j++ {
			if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
				continue
			}
			score := -t.red[j] // improvement rate moving up from lo
			d := 1.0
			if t.atUpper[j] {
				score = t.red[j] // moving down from hi
				d = -1
			}
			if score > best {
				enter, dir = j, d
				if useBland {
					break
				}
				best = score
			}
		}
		if enter < 0 {
			// The incremental row accumulates floating error across many
			// pivots; confirm optimality against freshly computed reduced
			// costs once before declaring victory.
			if !refreshed {
				t.refreshRed(c)
				refreshed = true
				continue
			}
			return StatusOptimal, iters
		}
		refreshed = false
		// Ratio test: smallest step over basic-variable bound hits and the
		// entering variable's own span.
		limit := t.hi[enter] - t.lo[enter] // may be +inf
		leave := -1
		leaveToUpper := false
		for i := 0; i < t.m; i++ {
			aij := t.a[i*t.n+enter]
			delta := dir * aij // rate at which xB[i] decreases per unit step
			bi := t.basis[i]
			var ti float64
			var toUpper bool
			if delta > eps {
				ti = (t.xB[i] - t.lo[bi]) / delta
			} else if delta < -eps {
				hb := t.hi[bi]
				if math.IsInf(hb, 1) {
					continue
				}
				ti = (hb - t.xB[i]) / -delta
				toUpper = true
			} else {
				continue
			}
			if ti < 0 {
				ti = 0 // eps-level bound violation from drift
			}
			if ti < limit-eps || (ti < limit+eps && (leave < 0 || bi < t.basis[leave])) {
				limit = ti
				leave = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(limit, 1) {
			return StatusUnbounded, iters
		}
		if leave < 0 {
			t.boundFlip(enter, dir, limit)
			iters++
			continue
		}
		target := t.lo[t.basis[leave]]
		if leaveToUpper {
			target = t.hi[t.basis[leave]]
		}
		t.replaceBasic(leave, enter, target, leaveToUpper)
		iters++
	}
}

// dualSimplex restores primal feasibility after bound changes, preserving
// dual feasibility throughout — the warm-start workhorse. Returns ok=false
// when the warm start must be abandoned (dual-infeasible start or pivot
// budget exceeded); the caller falls back to a cold solve. A returned
// StatusInfeasible is a dual-unboundedness certificate: the violated row
// proves no setting of the nonbasic variables can bring the basic variable
// inside its bounds.
func (t *tableau) dualSimplex(maxIter int) (Status, int, bool) {
	real := t.realCols()
	t.refreshRed(t.c)
	for j := 0; j < real; j++ {
		if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
			continue
		}
		if t.atUpper[j] {
			if t.red[j] > dualTol {
				return StatusIterLimit, 0, false
			}
		} else if t.red[j] < -dualTol {
			return StatusIterLimit, 0, false
		}
	}
	iters := 0
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters, false
		}
		// Leaving row: the most violated basic variable.
		r := -1
		below := false
		worst := 1e-9
		for i := 0; i < t.m; i++ {
			bi := t.basis[i]
			if v := t.lo[bi] - t.xB[i]; v > worst {
				worst, r, below = v, i, true
			}
			if hb := t.hi[bi]; !math.IsInf(hb, 1) {
				if v := t.xB[i] - hb; v > worst {
					worst, r, below = v, i, false
				}
			}
		}
		if r < 0 {
			return StatusOptimal, iters, true
		}
		// Entering column: the dual ratio test. For a basic variable below
		// its lower bound we need columns whose movement raises it; above
		// the upper bound, columns whose movement lowers it. Among the
		// eligible, the smallest |red/a| keeps every other reduced cost on
		// its feasible side after the pivot.
		row := t.a[r*t.n : (r+1)*t.n]
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < real; j++ {
			if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
				continue
			}
			arj := row[j]
			var eligible bool
			if below {
				eligible = (!t.atUpper[j] && arj < -eps) || (t.atUpper[j] && arj > eps)
			} else {
				eligible = (!t.atUpper[j] && arj > eps) || (t.atUpper[j] && arj < -eps)
			}
			if !eligible {
				continue
			}
			ratio := math.Abs(t.red[j] / arj)
			if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return StatusInfeasible, iters, true
		}
		target := t.lo[t.basis[r]]
		if !below {
			target = t.hi[t.basis[r]]
		}
		t.replaceBasic(r, enter, target, !below)
		iters++
	}
}

// boundFlip moves nonbasic column j from one bound to the other (distance
// dist in direction dir) without any basis change, updating the basic
// values it shifts.
func (t *tableau) boundFlip(j int, dir, dist float64) {
	step := dir * dist
	for i := 0; i < t.m; i++ {
		if aij := t.a[i*t.n+j]; aij != 0 {
			t.xB[i] -= step * aij
		}
	}
	t.atUpper[j] = !t.atUpper[j]
}

// replaceBasic pivots column j into the basis at row r, sending the
// current basic variable of r to targetBound (its lower or upper bound per
// leavingAtUpper). It updates the basic values, nonbasic statuses, the
// Gauss-Jordan tableau, and the maintained reduced-cost row.
func (t *tableau) replaceBasic(r, j int, targetBound float64, leavingAtUpper bool) {
	n := t.n
	piv := t.a[r*n+j]
	delta := (t.xB[r] - targetBound) / piv
	enterVal := t.value(j) + delta
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		aij := t.a[i*n+j]
		if aij == 0 {
			continue
		}
		t.xB[i] -= aij * delta
		// Clean eps-level bound violations introduced by the update.
		bi := t.basis[i]
		if d := t.xB[i] - t.lo[bi]; d < 0 && d > -1e-11 {
			t.xB[i] = t.lo[bi]
		} else if hb := t.hi[bi]; !math.IsInf(hb, 1) {
			if d := t.xB[i] - hb; d > 0 && d < 1e-11 {
				t.xB[i] = hb
			}
		}
	}
	leaving := t.basis[r]
	t.atUpper[leaving] = leavingAtUpper
	if leaving >= t.realCols() {
		// An artificial that leaves the basis is pinned at zero for good.
		t.hi[leaving] = 0
		t.atUpper[leaving] = false
	}
	t.xB[r] = enterVal

	// Gauss-Jordan pivot on (r, j). The pivot row's nonzero columns are
	// collected once so every elimination walks only those indices instead
	// of branching across all n columns — the single hottest loop in the
	// solver.
	inv := 1 / piv
	prow := t.a[r*n : (r+1)*n]
	if cap(t.nz) < n {
		t.nz = make([]int32, 0, n)
	}
	nz := t.nz[:0]
	for jj := range prow {
		v := prow[jj] * inv
		// Drop eps-dust to fight fill-in and drift accumulation.
		if v < 1e-13 && v > -1e-13 {
			v = 0
		}
		prow[jj] = v
		if v != 0 {
			nz = append(nz, int32(jj))
		}
	}
	t.nz = nz
	prow[j] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i*n+j]
		if f == 0 {
			continue
		}
		irow := t.a[i*n : (i+1)*n]
		for _, jj := range nz {
			irow[jj] -= f * prow[jj]
		}
		irow[j] = 0 // exact
	}
	if t.red != nil {
		f := t.red[j]
		if f != 0 {
			for _, jj := range nz {
				t.red[jj] -= f * prow[jj]
			}
			t.red[j] = 0 // exact
		}
	}
	t.inBasis[leaving] = false
	t.inBasis[j] = true
	t.basis[r] = j
}

// setVarBounds updates the bounds of structural column j in the live
// tableau. When a nonbasic column's resting value moves (its bound changed
// under it, or an at-upper column lost its finite upper bound), the basic
// values are shifted accordingly so the tableau stays consistent; any
// resulting primal infeasibility is the dual simplex's job.
func (t *tableau) setVarBounds(j int, lo, hi float64) {
	if t.inBasis[j] {
		t.lo[j] = lo
		t.hi[j] = hi
		return
	}
	oldVal := t.value(j)
	t.lo[j] = lo
	t.hi[j] = hi
	if t.atUpper[j] && math.IsInf(hi, 1) {
		t.atUpper[j] = false
	}
	newVal := t.value(j)
	if newVal == oldVal {
		return
	}
	shift := newVal - oldVal
	for i := 0; i < t.m; i++ {
		if aij := t.a[i*t.n+j]; aij != 0 {
			t.xB[i] -= aij * shift
		}
	}
}

// duals reads y = c_B·B⁻¹ off the slack columns: row i's slack is ±e_i
// in A (− on ≥ rows), so its phase-2 reduced cost is ∓y_i.
func (t *tableau) duals(m *Model) []float64 {
	t.refreshRed(t.c)
	y := make([]float64, t.m)
	for i, con := range m.cons {
		y[i] = -t.red[t.nv+i]
		if con.sense == GE {
			y[i] = t.red[t.nv+i]
		}
	}
	return y
}

// extract reads the structural solution back in model coordinates.
func (t *tableau) extract(m *Model) []float64 {
	out := make([]float64, len(m.vars))
	for j := range out {
		out[j] = t.value(j)
	}
	for i := 0; i < t.m; i++ {
		if bj := t.basis[i]; bj < t.nv {
			out[bj] = t.xB[i]
		}
	}
	// Clean tiny bound violations from floating error.
	for j, v := range m.vars {
		if out[j] < v.lo && out[j] > v.lo-1e-7 {
			out[j] = v.lo
		}
		if !math.IsInf(v.hi, 1) && out[j] > v.hi && out[j] < v.hi+1e-7 {
			out[j] = v.hi
		}
	}
	return out
}
