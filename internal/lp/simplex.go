package lp

import (
	"fmt"
	"math"
	"time"
)

const (
	eps = 1e-9
	// blandRun is the run of consecutive degenerate pivots — ratio-test
	// steps of at most eps, which leave the objective where it was — after
	// which a solve stops pricing by Dantzig's rule, which can cycle, and
	// prices by Bland's rule, which cannot, to its end.
	blandRun = 256
	// hardIterLimit aborts pathological instances.
	hardIterLimit = 200000
	// dualTol is the reduced-cost tolerance below which a saved basis still
	// counts as dual feasible for a warm re-solve.
	dualTol = 1e-7
	// dualIterFactor bounds warm re-solve dual pivots at factor·m before
	// the solver gives up and falls back to a cold solve.
	dualIterFactor = 4
	// minDualIters keeps the dual pivot budget useful on tiny models.
	minDualIters = 200
	// dropTol is the magnitude below which an entry of a pivot row or of an
	// eta column is treated as zero, to fight fill-in and drift.
	dropTol = 1e-13
)

// Solver owns the simplex working state for one model and keeps it alive
// across solves, which is what makes warm re-solves after bound changes
// cheap: the basis factorization encodes only the constraint matrix
// (bounds never appear in it), so tightening or relaxing a bound
// invalidates nothing but primal feasibility — which the dual simplex
// repairs in a handful of pivots starting from the previous optimal basis.
// The column store, the factorization arenas and every work vector live
// in the state and are reused from solve to solve.
type Solver struct {
	model *Model
	t     *revised
}

// NewSolver wraps a model. The working state is built on the first Solve.
func NewSolver(m *Model) *Solver {
	return &Solver{model: m}
}

// wallClock is the package's one sanctioned read of the host clock. It
// feeds Solution.Phase1Time/Phase2Time, measurement fields no pivot
// decision ever reads, so a solve stays a pure function of the model.
func wallClock() time.Time {
	//lint:ignore simclock measurement only: feeds the phase timers of Solution, which the solver never reads
	return time.Now()
}

// Solve runs a cold solve, discarding any previous basis. It starts from
// the slack basis (load), runs the dual simplex to a feasible basis, then
// the primal clean-up ReSolve runs. A column whose cost is negative and
// whose upper bound is infinite would make the slack basis dual
// infeasible, so the dual run prices it at cost 0 (revised.dualCosts) and the
// clean-up at its true cost, which it proves optimal or unbounded: a dual
// phase 1 by cost modification (Koberstein 2005). An infeasibility verdict
// of the dual run stands only if its Farkas row proves it
// (provesInfeasible); one that does not is reported as StatusSingular,
// never as StatusInfeasible.
func (s *Solver) Solve() (Solution, error) {
	if len(s.model.vars) == 0 {
		return Solution{}, ErrEmptyModel
	}
	if s.t == nil {
		s.t = &revised{}
	}
	// Until this solve ends optimal there is no basis to warm-start from.
	s.t.valid = false
	// Crossed bounds (possible via branch-and-bound tightening, which
	// bypasses SetBounds validation) make the model trivially infeasible;
	// the solver would otherwise misread such a column as fixed.
	for _, v := range s.model.vars {
		if v.lo > v.hi {
			sol := Solution{Status: StatusInfeasible}
			return sol, solveErr(StatusInfeasible, s.model.name, 0)
		}
	}
	start := wallClock()
	if !s.t.load(s.model) {
		sol := Solution{Status: StatusSingular, Nodes: 1}
		return sol, solveErr(StatusSingular, s.model.name, 0)
	}
	return s.solveFromSlack(start)
}

// solveFromSlack is the rest of Solve once load has set up the slack
// basis; start is when the solve began. The dual run's pivots are its
// DualIterations and its time is Phase1Time, the time to a feasible basis.
func (s *Solver) solveFromSlack(start time.Time) (Solution, error) {
	t := s.t
	t.degenerate, t.bland = 0, false
	status, dIters := t.dualSimplex(t.dualCosts(), hardIterLimit)
	p2Start := wallClock()
	sol := Solution{
		Status:         status,
		DualIterations: dIters,
		Iterations:     dIters,
		Phase1Time:     p2Start.Sub(start),
		Nodes:          1,
	}
	switch {
	case status == StatusOptimal:
		return s.cleanUp(sol, p2Start)
	// The row is row r of B⁻¹, which priceRow left in rho; red is free
	// scratch, as every run recomputes it before reading it.
	case status == StatusInfeasible && !provesInfeasible(s.model, t.rho, t.red):
		sol.Status = StatusSingular
		return sol, fmt.Errorf("%w: %s after %d pivots: the Farkas row of an infeasibility verdict proves nothing",
			ErrSingular, s.model.name, dIters)
	case status == StatusInfeasible && onInfeasible != nil:
		onInfeasible()
	}
	return sol, solveErr(status, s.model.name, dIters)
}

// cleanUp runs the primal clean-up from the primal feasible basis a dual
// run ended on, pricing the true costs c, and completes sol with it; start
// is when its Phase2Time began. After a cold dual run it prices in any
// column the run priced at 0; after a warm one it mops up eps-level dual
// infeasibility. Both usually take zero pivots.
func (s *Solver) cleanUp(sol Solution, start time.Time) (Solution, error) {
	t := s.t
	status, it2 := t.optimize(t.c)
	sol.Status = status
	sol.Phase2Iterations = it2
	sol.Iterations += it2
	sol.Phase2Time = wallClock().Sub(start)
	t.valid = status == StatusOptimal
	if !t.valid {
		return sol, solveErr(status, s.model.name, sol.Iterations)
	}
	s.finish(&sol)
	return sol, nil
}

// ReSolve re-optimizes after bound changes (Solver.SetBounds/SetUpper),
// warm-starting from the current basis with the dual simplex. The basis
// stays dual feasible under any bound change, so this usually converges in
// a few pivots. When the warm start is rejected (no prior basis, dual
// infeasibility from numerical drift, a pivot budget blow-out, or a basis
// that no longer factorizes) the solver transparently falls back to a cold
// Solve; Solution.WarmStarted reports which path produced the answer. A
// warm infeasibility verdict is re-derived by a cold Solve too, which
// proves its Farkas row before any caller sees it.
func (s *Solver) ReSolve() (Solution, error) {
	if !s.HasBasis() {
		return s.Solve()
	}
	t := s.t
	start := wallClock()
	t.degenerate, t.bland = 0, false
	status, dIters := t.dualSimplex(t.c, dualIterBudget(t.m))
	if status != StatusOptimal {
		// A rejected warm start, or a verdict to re-derive; a cold solve
		// also leaves the solver in a well-defined state for the caller's
		// next bound change.
		return s.Solve()
	}
	return s.cleanUp(Solution{DualIterations: dIters, Iterations: dIters, WarmStarted: true, Nodes: 1}, start)
}

// provesInfeasible reports whether the row multipliers y prove m
// infeasible (Farkas's lemma). Every point of the rows Ax + Ss = b, S the
// slack signs, satisfies gᵀx + (yᵀS)s = y·b for g = yᵀA; when y·b lies
// outside the range the left side takes over the bounds of the structural
// and slack columns, no point within the bounds satisfies the rows. A
// column with an infinite bound opens the range only when its coefficient
// exceeds eps, the dual ratio test's zero. It reads nothing but the model
// and y, like CheckCertificate; g is scratch of at least len(m.vars).
func provesInfeasible(m *Model, y, g []float64) bool {
	g = g[:len(m.vars)]
	clear(g)
	yb, low, high := 0.0, 0.0, 0.0 // y·b, and the range of the left side
	mag := 0.0                     // the magnitude of what was summed
	// add widens [low, high] by the range of gj·x over lo ≤ x ≤ hi.
	add := func(gj, lo, hi float64) {
		if math.IsInf(hi, 1) {
			if math.Abs(gj) <= eps {
				return
			}
		} else {
			mag += math.Abs(gj * hi)
		}
		mag += math.Abs(gj * lo)
		if gj < 0 {
			lo, hi = hi, lo
		}
		low += gj * lo
		high += gj * hi
	}
	for i, con := range m.cons {
		yi := y[i]
		if yi == 0 {
			continue
		}
		yb += yi * con.rhs
		mag += math.Abs(yi * con.rhs)
		idx, val := m.row(i)
		for k, j := range idx {
			g[j] += yi * val[k]
		}
		// The slack of an inequality rests in [0, ∞), with coefficient yi
		// on a ≤ row and −yi on a ≥ row; an equality's is fixed at 0.
		switch con.sense {
		case LE:
			add(yi, 0, math.Inf(1))
		case GE:
			add(-yi, 0, math.Inf(1))
		}
	}
	for j, v := range m.vars {
		add(g[j], v.lo, v.hi)
	}
	tol := 1e-9 * (1 + mag)
	return yb < low-tol || yb > high+tol
}

// SetBounds updates the bounds of v in the model and, when a basis is
// live, in the solver state. Moving a nonbasic variable's resting bound
// shifts the basic values; they are recomputed once, at the next ReSolve.
func (s *Solver) SetBounds(v VarID, lo, hi float64) error {
	if err := s.model.SetBounds(v, lo, hi); err != nil {
		return err
	}
	if s.HasBasis() {
		s.t.setVarBounds(int(v), lo, hi)
	}
	return nil
}

// SetUpper updates only the upper bound of v (the repair-loop cap path).
func (s *Solver) SetUpper(v VarID, hi float64) error {
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
func (s *Solver) Duals() []float64 {
	if !s.HasBasis() {
		return nil
	}
	return append([]float64(nil), s.t.rowDuals(s.t.c)...)
}

// onOptimal is a test seam: lp's own tests point it at the certificate
// checker so every optimal solve — including the ones SolveMILP makes
// internally — is verified. It is nil in production and runs after the
// solve is complete, so no pivot decision can read it.
var onOptimal func(s *Solver, sol *Solution)

// onInfeasible is its twin for verdicts: lp's own tests count through it
// the infeasibility verdicts whose Farkas row provesInfeasible accepted.
// It is nil in production.
var onInfeasible func()

// finish extracts values and the objective into an optimal solution.
func (s *Solver) finish(sol *Solution) {
	sol.Values = s.t.extract(s.model)
	sol.Objective = 0
	for i, v := range s.model.vars {
		sol.Objective += v.obj * sol.Values[i]
	}
	if onOptimal != nil {
		seen := *sol // a copy, so the indirect call does not make every sol escape
		onOptimal(s, &seen)
	}
}

// solveErr maps a terminal status to the package error.
func solveErr(status Status, name string, iters int) error {
	switch status {
	case StatusInfeasible:
		return fmt.Errorf("%w: %s", ErrInfeasible, name)
	case StatusUnbounded:
		return fmt.Errorf("%w: %s", ErrUnbounded, name)
	case StatusSingular:
		return fmt.Errorf("%w: %s after %d pivots", ErrSingular, name, iters)
	default:
		return fmt.Errorf("%w: %s after %d pivots", ErrIterLimit, name, iters)
	}
}

func dualIterBudget(m int) int {
	b := dualIterFactor * m
	if b < minDualIters {
		b = minDualIters
	}
	return b
}

// optimize runs bounded-variable primal simplex pivots for the cost vector
// c. A nonbasic column at its lower bound enters when its reduced cost is
// negative; one at its upper bound enters (moving down) when its reduced
// cost is positive. The ratio test limits the move by the first basic
// variable to hit either of its bounds, or by the entering variable's own
// opposite bound — the latter is a bound flip that changes no basis at
// all. Pricing follows Dantzig's rule, the most improving column, until
// the solve has made blandRun degenerate pivots in a row, counted across
// the runs of one solve (a dual run and its clean-up); from then on it
// follows Bland's rule, the lowest-index improving column.
func (t *revised) optimize(c []float64) (Status, int) {
	t.refreshRed(c)
	refreshed := true
	iters := 0
	for {
		if iters >= hardIterLimit {
			return StatusIterLimit, iters
		}
		// Price from the maintained reduced-cost row.
		enter := -1
		dir := 1.0
		best := eps
		for j := 0; j < t.n; j++ {
			score := -t.red[j] // improvement rate moving up from lo
			d := 1.0
			if t.atUpper[j] {
				score = t.red[j] // moving down from hi
				d = -1
			}
			// The score goes first because it rules nearly every column
			// out; a basic column's reduced cost is exactly 0.
			if score > best && !t.inBasis[j] && t.hi[j]-t.lo[j] >= eps {
				enter, dir = j, d
				if t.bland {
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
		if !t.refactorDue() {
			return StatusSingular, iters
		}
		t.ftran(enter)
		// Ratio test: smallest step over basic-variable bound hits and the
		// entering variable's own span.
		limit := t.hi[enter] - t.lo[enter] // may be +inf
		leave := -1
		leaveToUpper := false
		for i, aij := range t.col {
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
		if limit > eps {
			t.degenerate = 0
		} else if t.degenerate++; t.degenerate >= blandRun {
			t.bland = true
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
		t.priceRow(leave)
		t.replaceBasic(leave, enter, target, leaveToUpper)
		iters++
	}
}

// dualSimplex restores primal feasibility for the costs c, preserving dual
// feasibility throughout: the warm-start workhorse, and a cold solve's
// first run from the slack basis. It returns StatusOptimal at a primal
// feasible basis; StatusIterLimit when the start is not dual feasible
// (only a warm start, after drift, can meet one) or maxIter pivots did not
// reach one; StatusSingular when the basis will not refactor. A returned
// StatusInfeasible is a dual-unboundedness verdict: no nonbasic column can
// move the violated basic variable of row r toward its bounds, and rho
// holds row r of B⁻¹, the Farkas row provesInfeasible checks.
//
// The leaving row is the most violated basic variable, until the solve
// has made blandRun degenerate dual pivots in a row — ones whose dual
// step, the entering column's ratio, is at most eps, which leave the dual
// objective where it was. From then on it is the infeasible basic
// variable of lowest column index (Bland's rule for the dual, which
// cannot cycle), to the end of the solve.
func (t *revised) dualSimplex(c []float64, maxIter int) (Status, int) {
	if t.stale {
		t.recomputeXB()
	}
	t.refreshRed(c)
	for j := 0; j < t.n; j++ {
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
		if !t.refactorDue() {
			return StatusSingular, iters
		}
		// Entering column: the dual ratio test. For a basic variable below
		// its lower bound we need columns whose movement raises it; above
		// the upper bound, columns whose movement lowers it. Among the
		// eligible, the smallest |red/a| keeps every other reduced cost on
		// its feasible side after the pivot; ties go to the lowest index.
		t.priceRow(r)
		enter := -1
		bestRatio := math.Inf(1)
		for _, j32 := range t.alphaIdx {
			j := int(j32)
			if t.hi[j]-t.lo[j] < eps {
				continue
			}
			arj := t.alpha[j]
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
		t.ftran(enter)
		t.replaceBasic(r, enter, target, !below)
		iters++
	}
}

// boundFlip moves nonbasic column j from one bound to the other (distance
// dist in direction dir) without any basis change, updating the basic
// values it shifts. t.col holds B⁻¹A_j.
func (t *revised) boundFlip(j int, dir, dist float64) {
	step := dir * dist
	for i, aij := range t.col {
		if aij != 0 {
			t.xB[i] -= step * aij
		}
	}
	t.atUpper[j] = !t.atUpper[j]
}

// replaceBasic pivots column j into the basis at position r, sending the
// current basic variable of r to targetBound (its lower or upper bound per
// leavingAtUpper). t.col must hold B⁻¹A_j and t.alpha row r of B⁻¹A. It
// updates the basic values, the nonbasic statuses and the maintained
// reduced-cost row, and appends the pivot to the eta file.
func (t *revised) replaceBasic(r, j int, targetBound float64, leavingAtUpper bool) {
	piv := t.col[r]
	delta := (t.xB[r] - targetBound) / piv
	enterVal := t.value(j) + delta
	for i, aij := range t.col {
		if i == r || aij == 0 {
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
	leaving := int(t.basis[r])
	t.atUpper[leaving] = leavingAtUpper
	t.xB[r] = enterVal

	// Row r of the updated B⁻¹A is α/α_j, and every reduced cost moves by
	// the entering one times its entry there. The row is scaled by its own
	// entry α_j rather than by col[r], which equals it only up to rounding:
	// entries that are equal in A then cancel exactly, as they do in a
	// tableau, and exact ties in the pricing stay exact ties (col[r] stands
	// in should rounding ever zero α_j). The leaving column's entry is 1/α_j;
	// the entering column's reduced cost becomes 0.
	if f := t.red[j]; f != 0 {
		inv := 1 / piv
		if a := t.alpha[j]; a != 0 {
			inv = 1 / a
		}
		for _, jj := range t.alphaIdx {
			v := t.alpha[jj] * inv
			if v < dropTol && v > -dropTol {
				continue // eps-dust: dropping it fights drift accumulation
			}
			t.red[jj] -= f * v
		}
		t.red[leaving] = -f * inv
		t.red[j] = 0 // exact
	}
	t.inBasis[leaving] = false
	t.inBasis[j] = true
	t.basis[r] = int32(j)
	t.lu.pushEta(r, t.col)
}

// setVarBounds updates the bounds of structural column j in the live
// state. When a nonbasic column's resting value moves (its bound changed
// under it, or an at-upper column lost its finite upper bound) the basic
// values go stale; any resulting primal infeasibility is the dual
// simplex's job.
func (t *revised) setVarBounds(j int, lo, hi float64) {
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
	if t.value(j) != oldVal {
		t.stale = true
	}
}

// extract reads the structural solution back in model coordinates.
func (t *revised) extract(m *Model) []float64 {
	out := make([]float64, len(m.vars))
	for j := range out {
		out[j] = t.value(j)
	}
	for i, bj := range t.basis {
		if int(bj) < t.nv {
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
