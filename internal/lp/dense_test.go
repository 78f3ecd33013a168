package lp

import "math"

// dantzigLimit is the pivot count after which the dense reference's
// optimize switches from Dantzig's rule to Bland's rule. The production
// solver switches after a run of degenerate pivots instead (blandRun), so
// the two may take different pivots past that run, as they already may
// among tied columns.
const dantzigLimit = 20000

// dustTol is the magnitude below which the dense reference's pivot skips
// a row's elimination: the row's entry in the entering column is
// cancellation dust, and the update would move no entry of the row by
// more than dustTol times the pivot row's largest entry, far below
// anything the pivot rules read. Dust is most of a long-lived tableau
// (on AS-3679's share model, 24 warm steps after the dual cold start,
// 97 % of B⁻¹A's nonzeros are below 1e-13), and every dusty row an
// elimination visits spreads more. Larger values, like dropping dust from
// the eliminated rows, move the dense engine's basic values by enough to
// reach an infeasibility verdict on a basic variable 2–4e-9 below its
// bound where the sparse engine reaches none, at one warm step of UNIV1
// seed 1's share model.
const dustTol = 1e-20

// This file is the dense Gauss-Jordan tableau the package solved with
// before the sparse revised simplex replaced it, kept (minus the phase
// timers) as the reference the differential and fuzz tests compare the
// production engine against, and given the production engine's cold
// start: same pricing, same ratio tests, same start, same infeasibility
// check, same warm contract, a different representation of B⁻¹A. Its
// primal two-phase method, which the production engine no longer has, is
// kept beside it as an oracle with a start of its own (twoPhase).

// denseSolver is Solver over a dense tableau.
type denseSolver struct {
	model *Model
	t     *tableau
}

// newDenseSolver wraps a model. The tableau is built on the first Solve.
func newDenseSolver(m *Model) *denseSolver {
	return &denseSolver{model: m}
}

// Solve runs a cold solve, discarding any previous basis: the dual
// simplex from the slack basis, with a negative cost on a column with no
// upper bound priced at 0, then the primal clean-up at the true costs; an
// infeasibility verdict stands only if its Farkas row proves it — the
// production solver's cold start, pivot rule for pivot rule.
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
	t := newTableau(s.model, false)
	s.t = t
	status, dIters := t.dualSimplex(t.cd, hardIterLimit)
	if status == StatusInfeasible && !provesInfeasible(s.model, t.farkasRow(s.model), make([]float64, t.nv)) {
		status = StatusSingular
	}
	return s.cleanUp(Solution{Status: status, DualIterations: dIters, Iterations: dIters, Nodes: 1})
}

// cleanUp runs the primal clean-up at the true costs after a dual run that
// ended StatusOptimal in sol, and completes sol; after any other ending it
// drops the tableau, so the next ReSolve goes cold.
func (s *denseSolver) cleanUp(sol Solution) (Solution, error) {
	if sol.Status == StatusOptimal {
		var it2 int
		sol.Status, it2 = s.t.optimize(s.t.c, false)
		sol.Phase2Iterations = it2
		sol.Iterations += it2
	}
	if sol.Status != StatusOptimal {
		s.t = nil
		return sol, solveErr(sol.Status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// ReSolve re-optimizes after bound changes (Solver.SetBounds/SetUpper),
// warm-starting from the current basis with the dual simplex. The basis
// stays dual feasible under any bound change, so this usually converges in
// a few pivots. When the warm start is rejected (no prior basis, dual
// infeasibility from numerical drift, or a pivot budget blow-out) or
// reaches an infeasibility verdict, the solver falls back to a cold Solve;
// Solution.WarmStarted reports which path produced the answer.
func (s *denseSolver) ReSolve() (Solution, error) {
	if s.t == nil {
		return s.Solve()
	}
	t := s.t
	t.degenerate, t.bland = 0, false
	status, dIters := t.dualSimplex(t.c, dualIterBudget(t.m))
	if status != StatusOptimal {
		return s.Solve()
	}
	return s.cleanUp(Solution{Status: status, DualIterations: dIters, Iterations: dIters, WarmStarted: true, Nodes: 1})
}

// twoPhase solves m cold by the primal two-phase method on a dense
// tableau: every structural column starts at its lower bound, each row
// whose slack cannot hold the residual gets an artificial, phase 1 drives
// the artificials to zero and phase 2 optimizes. It shares the engines'
// pricing and ratio tests but neither their start nor their infeasibility
// verdicts, which makes it the oracle enginePair checks every cold
// verdict against.
func twoPhase(m *Model) (Solution, error) {
	if len(m.vars) == 0 {
		return Solution{}, ErrEmptyModel
	}
	for _, v := range m.vars {
		if v.lo > v.hi {
			return Solution{Status: StatusInfeasible}, solveErr(StatusInfeasible, m.name, 0)
		}
	}
	s := &denseSolver{model: m, t: newTableau(m, true)}
	status, it1 := s.t.phase1()
	sol := Solution{Status: status, Iterations: it1, Nodes: 1}
	if status != StatusOptimal {
		return sol, solveErr(status, m.name, it1)
	}
	return s.cleanUp(sol)
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
// (bounds [0,∞) for inequalities, [0,0] for equalities) and, in twoPhase's
// start only, artificial columns for the rows whose slacks cannot hold the
// residual. `a` is maintained as B⁻¹A by Gauss-Jordan pivoting; basic-variable
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

	c   []float64 // costs
	cd  []float64 // a cold dual run's costs (revised.cd)
	art []float64 // phase-1 costs (1 on artificials)

	red     []float64 // maintained reduced-cost row
	inBasis []bool    // basic-column marks
	nz      []int32   // scratch: pivot-row nonzero columns

	// degenerate and bland are the production solver's guard on the dual
	// simplex (see revised.dualSimplex); bland also switches optimize to
	// Bland's rule, as it does there.
	degenerate int
	bland      bool
	// verdict is the row of dualSimplex's last infeasibility verdict.
	verdict int
}

// rowTerms returns constraint i's merged terms as Terms.
func rowTerms(m *Model, i int) []Term {
	idx, val := m.row(i)
	out := make([]Term, len(idx))
	for k, j := range idx {
		out[k] = Term{Var: VarID(j), Coef: val[k]}
	}
	return out
}

// newTableau converts the model. Unless twoPhase is set it takes
// revised.load's start: every slack basic at the residual, in its bounds
// or not, a column whose cost is negative resting at its upper bound when
// that is finite, and cd pricing it at 0 when it is not. With twoPhase set
// every structural column starts at its lower bound; each row's slack
// absorbs the residual when it can, otherwise the row gets an artificial
// and joins phase 1.
func newTableau(m *Model, twoPhase bool) *tableau {
	nv := len(m.vars)
	nrows := len(m.cons)
	atUpper := func(v variable) bool { return !twoPhase && v.obj < 0 && !math.IsInf(v.hi, 1) }

	// Residual of each row at the starting point.
	resid := make([]float64, nrows)
	for i, con := range m.cons {
		r := con.rhs
		for _, t := range rowTerms(m, i) {
			v := m.vars[t.Var]
			x := v.lo
			if atUpper(v) {
				x = v.hi
			}
			r -= t.Coef * x
		}
		resid[i] = r
	}
	// A row needs an artificial when its slack cannot hold the residual:
	// LE wants resid ≥ 0, GE wants resid ≤ 0, EQ wants resid = 0. The slack
	// basis start has none.
	needArt := make([]bool, nrows)
	nart := 0
	for i, con := range m.cons {
		if !twoPhase {
			continue
		}
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
		cd:      make([]float64, n),
		art:     make([]float64, n),
		atUpper: make([]bool, n),
		inBasis: make([]bool, n),
	}
	for j, v := range m.vars {
		t.c[j], t.cd[j] = v.obj, v.obj
		t.lo[j] = v.lo
		t.hi[j] = v.hi
		t.atUpper[j] = atUpper(v)
		if !twoPhase && v.obj < 0 && math.IsInf(v.hi, 1) {
			t.cd[j] = 0
		}
	}
	artCol := nv + nrows
	for i, con := range m.cons {
		row := t.a[i*n : (i+1)*n]
		for _, term := range rowTerms(m, i) {
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
		if !twoPhase {
			t.basis[i] = slack
			t.xB[i] = sign * resid[i]
		} else if !needArt[i] {
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
	return t
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
		useBland := t.bland || iters >= dantzigLimit
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

// dualSimplex restores primal feasibility for the costs c, preserving dual
// feasibility throughout — the warm-start workhorse, and a cold solve's
// first run — with revised.dualSimplex's statuses. At a returned
// StatusInfeasible, verdict is the violated row, whose multipliers
// farkasRow reads. The leaving row is the most violated basic variable
// until blandRun degenerate dual pivots in a row, then the infeasible one
// of lowest column index.
func (t *tableau) dualSimplex(c []float64, maxIter int) (Status, int) {
	real := t.realCols()
	t.refreshRed(c)
	for j := 0; j < real; j++ {
		if t.inBasis[j] || t.hi[j]-t.lo[j] < eps {
			continue
		}
		if t.atUpper[j] {
			if t.red[j] > dualTol {
				return StatusIterLimit, 0
			}
		} else if t.red[j] < -dualTol {
			return StatusIterLimit, 0
		}
	}
	iters := 0
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		r := -1
		below := false
		worst := 1e-9
		for i := 0; i < t.m; i++ {
			bi := t.basis[i]
			v, under := t.lo[bi]-t.xB[i], true
			if hb := t.hi[bi]; !math.IsInf(hb, 1) && t.xB[i]-hb > v {
				v, under = t.xB[i]-hb, false
			}
			if v > worst && !t.bland {
				worst, r, below = v, i, under
			} else if v > 1e-9 && t.bland && (r < 0 || bi < t.basis[r]) {
				r, below = i, under
			}
		}
		if r < 0 {
			return StatusOptimal, iters
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
			t.verdict = r
			return StatusInfeasible, iters
		}
		if bestRatio > eps {
			t.degenerate = 0
		} else if t.degenerate++; t.degenerate >= blandRun {
			t.bland = true
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
		if v < dropTol && v > -dropTol {
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
		if f < dustTol && f > -dustTol {
			t.a[i*n+j] = 0 // as the elimination would leave it
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

// farkasRow reads row verdict of B⁻¹ off the slack columns: row i's slack
// is ±e_i in A (− on ≥ rows), so B⁻¹ times it is ± column i of B⁻¹.
func (t *tableau) farkasRow(m *Model) []float64 {
	y := make([]float64, t.m)
	for i, con := range m.cons {
		y[i] = t.a[t.verdict*t.n+t.nv+i]
		if con.sense == GE {
			y[i] = -y[i]
		}
	}
	return y
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
