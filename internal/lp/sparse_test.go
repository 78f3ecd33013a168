package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cloneModel returns a model the dense reference can own: Solver.SetBounds
// writes through to its model, so the two engines cannot share one.
func cloneModel(m *Model) *Model {
	c := *m
	c.vars = append([]variable(nil), m.vars...)
	c.slot = nil
	return &c
}

// enginePair drives the production solver and the dense reference through
// the same calls and fails the test the moment they disagree on status,
// objective (1e-7 relative) or the instance count ⌈x − 1e-6⌉ of an integer
// variable (the relaxation rounding of core.extractCounts). Every cold
// answer, a Solve's or a ReSolve's that went cold, is also checked against
// the dense two-phase method's on status and objective (twoPhase).
// TestMain's hook certifies every optimal sparse solve besides.
type enginePair struct {
	t      testing.TB
	sparse *Solver
	dense  *denseSolver
	// Dense is the reference's answer to the last solve, for tests that
	// report how far apart the two vertex paths ended.
	Dense Solution
}

func newEnginePair(t testing.TB, m *Model) *enginePair {
	return &enginePair{t: t, sparse: NewSolver(m), dense: newDenseSolver(cloneModel(m))}
}

// coldPlain and coldModified count the cold solves the pairs have seen
// start with every cost as it is and with some cost modified (a negative
// cost on a column with no upper bound, which the dual run prices at 0),
// so a test can check that it exercised both.
var coldPlain, coldModified int

func (p *enginePair) compare(what string, s, d Solution, serr, derr error) (Solution, error) {
	p.t.Helper()
	if s.Status != d.Status || (serr == nil) != (derr == nil) {
		p.t.Fatalf("%s: sparse %v (%v), dense %v (%v)", what, s.Status, serr, d.Status, derr)
	}
	if s.WarmStarted != d.WarmStarted {
		p.t.Fatalf("%s: sparse warm %t, dense warm %t", what, s.WarmStarted, d.WarmStarted)
	}
	if !s.WarmStarted {
		p.checkCold(what, s)
	}
	if serr != nil {
		if s.Values != nil || s.Objective != 0 {
			p.t.Fatalf("%s: failed solve carries values %v, objective %v", what, s.Values, s.Objective)
		}
		if p.sparse.HasBasis() {
			p.t.Fatalf("%s: failed solve left a basis behind", what)
		}
		return s, serr
	}
	if diff := math.Abs(s.Objective - d.Objective); diff > 1e-7*(1+math.Abs(d.Objective)) {
		p.t.Fatalf("%s: objective %v vs dense %v", what, s.Objective, d.Objective)
	}
	for j, v := range p.sparse.model.vars {
		if qs, qd := math.Ceil(s.Values[j]-1e-6), math.Ceil(d.Values[j]-1e-6); v.integer && qs != qd {
			p.t.Fatalf("%s: %s rounds to %v, dense to %v (%v vs %v)", what, p.sparse.model.VariableName(VarID(j)), qs, qd, s.Values[j], d.Values[j])
		}
	}
	p.Dense = d
	return s, nil
}

// checkCold counts a cold answer's start and checks its status and
// objective against twoPhase's on the model as it stands.
func (p *enginePair) checkCold(what string, s Solution) {
	p.t.Helper()
	m := p.dense.model
	modified := false
	for _, v := range m.vars {
		modified = modified || v.obj < 0 && math.IsInf(v.hi, 1)
	}
	coldModified += b2i(modified)
	coldPlain += b2i(!modified)
	o, err := twoPhase(m)
	if s.Status != o.Status {
		p.t.Fatalf("%s: cold %v, two-phase %v (%v)", what, s.Status, o.Status, err)
	}
	if diff := math.Abs(s.Objective - o.Objective); diff > 1e-7*(1+math.Abs(o.Objective)) {
		p.t.Fatalf("%s: cold objective %v vs two-phase %v", what, s.Objective, o.Objective)
	}
}

func (p *enginePair) Solve(what string) (Solution, error) {
	p.t.Helper()
	s, serr := p.sparse.Solve()
	d, derr := p.dense.Solve()
	return p.compare(what, s, d, serr, derr)
}

func (p *enginePair) ReSolve(what string) (Solution, error) {
	p.t.Helper()
	s, serr := p.sparse.ReSolve()
	d, derr := p.dense.ReSolve()
	return p.compare(what, s, d, serr, derr)
}

func (p *enginePair) SetBounds(v VarID, lo, hi float64) {
	p.t.Helper()
	serr, derr := p.sparse.SetBounds(v, lo, hi), p.dense.SetBounds(v, lo, hi)
	if (serr == nil) != (derr == nil) {
		p.t.Fatalf("SetBounds(%d, %v, %v): sparse %v, dense %v", v, lo, hi, serr, derr)
	}
}

// runSolverOps is the body of FuzzSolverOps: data first describes a small
// sparse model (bounded, fixed and unbounded variables; ≤, ≥ and = rows of
// one to three terms, some of them duplicates of each other), then a
// sequence of SetBounds / ReSolve / Solve calls and forced refactors. Both
// engines see every call; after every solve they must agree, and the sparse
// engine's answer must carry a valid optimality certificate.
//
// When the first byte's bits 3–4 read 1 the model is degenerate on
// purpose, the way the placement models are: every variable starts at 0,
// about two rows in three have a zero right-hand side, and some columns
// are copies of an earlier one (same bounds, cost and coefficients), so
// many bases share a vertex and Dantzig's rule meets ties.
func runSolverOps(t testing.TB, data []byte) {
	const maxVars, maxRows, maxOps = 8, 10, 24
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m := NewModel("fuzz")
	head := next()
	nv := 1 + head%maxVars
	degenerate := head/8%4 == 1
	origin := make([]VarID, 0, nv) // the column each variable copies, itself if none
	for j := 0; j < nv; j++ {
		b := next()
		if degenerate && j > 0 && b%4 == 0 {
			k := origin[b/4%j]
			v := m.vars[k]
			if _, err := m.AddVariable(fmt.Sprintf("x%d=x%d", j, k), v.lo, v.hi, v.obj); err != nil {
				t.Fatal(err)
			}
			origin = append(origin, k)
			continue
		}
		origin = append(origin, VarID(j))
		lo := float64(b % 3)
		if degenerate {
			lo = 0
		}
		hi := math.Inf(1)
		switch b / 3 % 4 {
		case 0:
			hi = lo + float64(1+b/12%5)
		case 1:
			hi = lo // fixed
		}
		if _, err := m.AddVariable(fmt.Sprintf("x%d", j), lo, hi, float64(next()%9-4)); err != nil {
			t.Fatal(err)
		}
	}
	nr := next() % (maxRows + 1)
	for i := 0; i < nr; i++ {
		b := next()
		terms := make([]Term, 1+b%3)
		for k := range terms {
			c := next()
			terms[k] = Term{Var: VarID(c % nv), Coef: float64(c/8%7 - 3)}
		}
		if degenerate {
			terms = withCopies(terms, origin)
		}
		if b/3%5 == 0 && i > 0 {
			// Repeat the previous row: redundant when it is an equality,
			// and a duplicate-term merge when the same variable recurs.
			prev := m.cons[len(m.cons)-1]
			if err := m.AddConstraint("dup", prev.sense, prev.rhs, rowTerms(m, len(m.cons)-1)...); err != nil {
				t.Fatal(err)
			}
			continue
		}
		c := next()
		rhs := float64(c%13 - 3)
		if degenerate && c%3 != 0 {
			rhs = 0
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", i), Sense(1+b/15%3), rhs, terms...); err != nil {
			t.Fatal(err)
		}
	}

	p := newEnginePair(t, m)
	if _, err := p.Solve("cold"); err != nil && len(data) == 0 {
		return
	}
	for op := 0; op < maxOps && len(data) > 0; op++ {
		b := next()
		what := fmt.Sprintf("op %d", op)
		switch b % 8 {
		case 0:
			p.Solve(what + " Solve")
		case 1:
			p.ReSolve(what + " ReSolve")
		case 2:
			// The models are too small to fill the eta file, so the
			// scheduled refactor is brought forward: whatever basis the
			// sequence has reached must factorize, and solve on from it.
			if st := p.sparse.t; p.sparse.HasBasis() && !st.lu.refactor(&st.cols, st.basis) {
				t.Fatalf("%s: basis %v does not refactor", what, st.basis)
			}
			p.ReSolve(what + " refactor+ReSolve")
		default:
			v := VarID(b / 8 % nv)
			lo := float64(next() % 3)
			hi := math.Inf(1)
			if c := next(); c%4 != 0 {
				hi = lo + float64(c/4%6)
			}
			p.SetBounds(v, lo, hi)
			if b%8 >= 5 {
				p.ReSolve(what + " SetBounds+ReSolve")
			}
		}
	}
}

// withCopies rewrites a row's terms onto copied columns: each term moves to
// the column its variable copies and is repeated on every copy of it, so
// copies stay identical columns.
func withCopies(terms []Term, origin []VarID) []Term {
	out := make([]Term, 0, len(terms))
	for _, tm := range terms {
		for j, o := range origin {
			if o == origin[tm.Var] {
				out = append(out, Term{Var: VarID(j), Coef: tm.Coef})
			}
		}
	}
	return out
}

func solverOpsSeed(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// FuzzSolverOps checks call *sequences*: a warm basis, its eta file and the
// stale-xB bookkeeping depend on every bound change and solve that came
// before, which a build-then-solve test never exercises.
func FuzzSolverOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(solverOpsSeed(1, 80))
	f.Add(solverOpsSeed(2, 160))
	// Two variables, an equality repeated three times, then cap, re-solve,
	// uncap, cold solve.
	f.Add([]byte{1, 2, 5, 2, 5, 4, 16, 8 + 0, 8 + 1, 6, 0, 0, 0, 0, 13, 0, 5, 1, 5, 0, 0, 0})
	// Degenerate models (see runSolverOps): two random ones, and six
	// variables of which x3 copies x1 and x5 copies x2 under five rows
	// (one repeated, three through the origin), then cap x1, re-solve,
	// refactor, uncap x3, solve cold.
	f.Add(degenerateSeed(3, 120))
	f.Add(degenerateSeed(4, 200))
	f.Add([]byte{8 + 5, 9, 3, 9, 2, 1, 5, 4, 9, 3, 8, 5,
		1, 36, 37, 9, 20, 38, 22, 18, 1, 0, 0, 34, 37, 22, 2, 3, 34, 6,
		8 + 5, 0, 9, 1, 2, 24 + 6, 0, 0, 0})
	// Both cold starts: x0 ∈ [0,1] and x1 ≥ 0, both at cost −2, under
	// 2x0 + x1 ≤ 4 and x1 + x0 ≥ 2. x1's cost is negative and its upper
	// bound infinite, so the first solve's dual run prices it at 0 and its
	// clean-up prices it in; then x1 is capped at 2, re-solved warm, and
	// solved cold again, now with every cost as it is.
	f.Add([]byte{1, 0, 2, 6, 2, 2, 1, 40, 33, 7, 19, 33, 32, 5, 8 + 3, 0, 9, 1, 0})
	// A cost-modified start that ends unbounded: x0 ≥ 0 at cost −1 and
	// x1 ≥ 0 at cost 1 under x0 + x1 ≥ 2 and x1 − x0 ≤ 1. The dual run
	// reaches a feasible basis, and the clean-up finds x0 unbounded; then
	// x0 is capped at 3 and solved again.
	f.Add([]byte{1, 6, 3, 6, 5, 2, 16, 32, 33, 5, 4, 33, 16, 4, 5, 0, 13})
	// A cost-modified start that ends infeasible: x0 ≥ 0 at cost −1 and
	// x1 ∈ [0,2] at cost 1 under x0 + x1 ≥ 3 and x0 ≤ 0. The dual run's
	// verdict is proven by its Farkas row; x0 is capped at 3 and the
	// verdict re-derived.
	f.Add([]byte{1, 6, 3, 12, 5, 2, 16, 32, 33, 6, 3, 32, 3, 5, 0, 13})
	f.Fuzz(func(t *testing.T, data []byte) { runSolverOps(t, data) })
}

// degenerateSeed is solverOpsSeed with the first byte's degenerate mode set.
func degenerateSeed(seed int64, n int) []byte {
	out := solverOpsSeed(seed, n)
	out[0] = out[0]&^(3<<3) | 1<<3
	return out
}

// TestSolverOpsRandom runs the FuzzSolverOps body over generated sequences,
// so plain `go test` covers them too.
func TestSolverOpsRandom(t *testing.T) {
	before, verdicts, plain, modified := certified, proven, coldPlain, coldModified
	for seed := int64(0); seed < 400; seed++ {
		runSolverOps(t, solverOpsSeed(seed, 40+int(seed%120)))
	}
	if certified-before < 400 {
		t.Fatalf("only %d optimal solves certified over 400 sequences: the generator is degenerate", certified-before)
	}
	verdicts, plain, modified = proven-verdicts, coldPlain-plain, coldModified-modified
	if verdicts == 0 {
		t.Fatal("no infeasibility verdict proven over 400 sequences: the row check went unexercised")
	}
	if plain == 0 || modified == 0 {
		t.Fatalf("cold solves with every cost as it is %d, with costs modified %d: one start went unexercised",
			plain, modified)
	}
	t.Logf("cold solves: %d with every cost as it is, %d with costs modified; %d verdicts proven",
		plain, modified, verdicts)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestNoRows: variables and zero constraints. Every pivot is a bound flip,
// the factorization is of a 0×0 basis, and an unbounded direction is
// reported as such.
func TestNoRows(t *testing.T) {
	m := NewModel("no-rows")
	x := addVar(t, m, "x", 1, 7, -1)
	y := addVar(t, m, "y", 2, 9, 3)
	z := addVar(t, m, "z", 0, math.Inf(1), 0)
	p := newEnginePair(t, m)
	sol, err := p.Solve("cold")
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 7 || sol.Value(y) != 2 || sol.Value(z) != 0 || len(p.sparse.Duals()) != 0 {
		t.Fatalf("values %v, duals %v", sol.Values, p.sparse.Duals())
	}
	p.SetBounds(x, 1, 4)
	if sol, err = p.ReSolve("warm"); err != nil || sol.Value(x) != 4 || !sol.WarmStarted {
		t.Fatalf("after cap: %+v, %v", sol, err)
	}
	free := NewModel("no-rows-unbounded")
	addVar(t, free, "w", 0, math.Inf(1), -1)
	if _, err := newEnginePair(t, free).Solve("cold"); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

// TestAllVariablesFixed: lo == hi everywhere, so nothing may ever enter the
// basis; the rows decide feasibility alone.
func TestAllVariablesFixed(t *testing.T) {
	build := func(rhs float64) *Model {
		m := NewModel("all-fixed")
		x := addVar(t, m, "x", 2, 2, 1)
		y := addVar(t, m, "y", 3, 3, -1)
		addCon(t, m, "sum", EQ, rhs, Term{x, 1}, Term{y, 1})
		addCon(t, m, "cap", LE, 10, Term{x, 2}, Term{y, 1})
		return m
	}
	p := newEnginePair(t, build(5))
	sol, err := p.Solve("feasible")
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations != 0 || sol.Value(0) != 2 || sol.Value(1) != 3 || !almost(sol.Objective, -1) {
		t.Fatalf("solution %+v", sol)
	}
	if _, err := newEnginePair(t, build(6)).Solve("infeasible"); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestRedundantRowsKeepPlaceholderBasic: three copies of one equality
// start with three fixed slacks basic at 6, outside their bounds [0,0].
// The dual run pivots x in on one row, which brings the other two slacks
// to zero, so two basis positions end up held by zero-valued placeholders
// (slacks pinned to [0,0]). The basis must keep factorizing with them in
// it, through warm re-solves, and a bound change that breaks the equality
// must still be reported infeasible.
func TestRedundantRowsKeepPlaceholderBasic(t *testing.T) {
	m := NewModel("redundant")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, math.Inf(1), 2)
	for i := 0; i < 3; i++ {
		addCon(t, m, "dup", EQ, 6, Term{x, 1}, Term{y, 1})
	}
	p := newEnginePair(t, m)
	if _, err := p.Solve("cold"); err != nil {
		t.Fatal(err)
	}
	st := p.sparse.t
	placeholders := 0
	for i, bj := range st.basis {
		if int(bj) >= st.nv && st.hi[bj] == 0 {
			placeholders++
			if st.xB[i] != 0 {
				t.Fatalf("placeholder column %d basic at %v", bj, st.xB[i])
			}
		}
	}
	if placeholders != 2 {
		t.Fatalf("%d placeholder columns basic, want 2 (basis %v)", placeholders, st.basis)
	}
	if !st.lu.refactor(&st.cols, st.basis) {
		t.Fatal("basis with redundant-row placeholders does not factorize")
	}
	p.SetBounds(x, 0, 4)
	sol, err := p.ReSolve("cap x")
	if err != nil || !almost(sol.Objective, 8) {
		t.Fatalf("after cap: %+v, %v", sol, err)
	}
	p.SetBounds(y, 0, 1)
	if _, err := p.ReSolve("cap y"); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// chainModel is n equalities x_i + x_{i+1} = 2 over n+1 variables in
// [0,3] with costs that alternate in sign: every row's slack starts at a
// residual outside its bounds, so the dual run alone outlasts the eta file
// several times over.
func chainModel(t testing.TB, n int) *Model {
	m := NewModel("chain")
	for j := 0; j <= n; j++ {
		if _, err := m.AddVariable(fmt.Sprintf("x%d", j), 0, 3, float64(1+j%3)*float64(1-2*(j%2))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := m.AddConstraint(fmt.Sprintf("c%d", i), EQ, 2, Term{VarID(i), 1}, Term{VarID(i + 1), 1}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestRefactorMidPhase1: a column z whose cost is negative and whose
// upper bound is infinite makes the slack basis dual infeasible, so the
// dual run, the solve's phase 1, prices z at 0 (cost modification). The
// fixed refactor schedule fires inside that run; the solve must carry on,
// and the clean-up must price z in at its true cost, to the dense
// reference's optimum and the two-phase method's objective.
func TestRefactorMidPhase1(t *testing.T) {
	m := chainModel(t, 3*refactorEvery)
	z := addVar(t, m, "z", 0, math.Inf(1), -1)
	addCon(t, m, "zcap", LE, 1, Term{z, 1})
	p := newEnginePair(t, m)
	sol, err := p.Solve("cold")
	if err != nil {
		t.Fatal(err)
	}
	if sol.DualIterations <= refactorEvery {
		t.Fatalf("the dual run took %d pivots: no refactor landed inside it (schedule: every %d)",
			sol.DualIterations, refactorEvery)
	}
	if sol.Phase2Iterations == 0 || sol.Value(z) != 1 {
		t.Fatalf("the clean-up took %d pivots and left z = %v: it did not price z in", sol.Phase2Iterations, sol.Value(z))
	}
	// The same schedule has to hold across warm re-solves: walk a cap down
	// the chain until the eta file has turned over again.
	for k := 0; k < 2*refactorEvery; k++ {
		p.SetBounds(VarID(k), 0, 1+float64(k%2))
		if _, err := p.ReSolve(fmt.Sprintf("cap %d", k)); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
	}
}

// TestDualColdStartRefactors: the chain's slack basis is dual feasible
// (its negative costs rest on finite upper bounds), so the cold solve's
// dual run prices every column at its true cost, and its fixed refactor
// schedule fires inside that run; the solve must carry on to the dense
// reference's optimum, and the basis it ends on must warm-start re-solves.
func TestDualColdStartRefactors(t *testing.T) {
	p := newEnginePair(t, chainModel(t, 3*refactorEvery))
	sol, err := p.Solve("cold")
	if err != nil {
		t.Fatal(err)
	}
	if sol.DualIterations <= refactorEvery {
		t.Fatalf("the dual run took %d pivots: no refactor landed inside it (schedule: every %d)",
			sol.DualIterations, refactorEvery)
	}
	if !p.sparse.HasBasis() {
		t.Fatal("dual cold start left no basis")
	}
	for k := 0; k < 8; k++ {
		p.SetBounds(VarID(3*k), 0, 1)
		sol, err := p.ReSolve(fmt.Sprintf("cap %d", k))
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		if err == nil && !sol.WarmStarted {
			t.Fatalf("cap %d: re-solve did not warm-start from the dual cold start's basis", k)
		}
	}
}

// TestWarmInfeasibleConfirmedCold: a re-solve the dual simplex finds
// infeasible is re-derived by a cold dual run, whose Farkas row is proven,
// before it is reported; it leaves no basis and no values behind, and the
// solver recovers once the bound is restored.
func TestWarmInfeasibleConfirmedCold(t *testing.T) {
	m := NewModel("warm-infeasible")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, 2, 1.5)
	addCon(t, m, "need", GE, 3, Term{x, 1}, Term{y, 1})
	p := newEnginePair(t, m)
	if _, err := p.Solve("cold"); err != nil {
		t.Fatal(err)
	}
	p.SetBounds(x, 0, 0.5)
	before := proven
	sol, err := p.ReSolve("cap")
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if sol.WarmStarted || sol.DualIterations == 0 || proven != before+1 {
		t.Fatalf("infeasibility not re-derived by a cold dual run with a proven row (%d proven): %+v",
			proven-before, sol)
	}
	if p.sparse.HasBasis() || p.sparse.Duals() != nil || p.sparse.RestingAtUpper(y) {
		t.Fatal("infeasible solve left a basis behind")
	}
	p.SetBounds(x, 0, 2)
	if sol, err = p.ReSolve("restore"); err != nil || !almost(sol.Objective, 3.5) || sol.WarmStarted {
		t.Fatalf("after restore: %+v, %v", sol, err)
	}
}

// TestUnprovenVerdictIsSingular: a dual run whose basic values are wrong
// (here a slack set below its bound behind the solver's back) can report
// an infeasibility verdict on a feasible model. Its Farkas row proves
// nothing, and the solve must end StatusSingular with ErrSingular and no
// basis, never StatusInfeasible.
func TestUnprovenVerdictIsSingular(t *testing.T) {
	m := NewModel("unproven")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	addCon(t, m, "cap", LE, 5, Term{x, 1})
	s := NewSolver(m)
	s.t = &revised{}
	if !s.t.load(m) {
		t.Fatal("slack basis does not factorize")
	}
	s.t.xB[0] = -1 // the slack of x ≤ 5 rests at 5; no column can raise it
	before := proven
	sol, err := s.solveFromSlack(wallClock())
	if !errors.Is(err, ErrSingular) || sol.Status != StatusSingular || sol.Values != nil {
		t.Fatalf("corrupt verdict: %+v, %v; want StatusSingular and ErrSingular", sol, err)
	}
	if proven != before || s.HasBasis() {
		t.Fatalf("an unproven verdict counted as proven (%d) or left a basis behind", proven-before)
	}
	if sol, err = s.Solve(); err != nil || sol.Value(x) != 0 {
		t.Fatalf("a clean cold solve after the corrupt one: %+v, %v", sol, err)
	}
}

// TestSingularRefactor: a basis that does not factorize — two positions
// claiming one column, or a column scaled to nothing — is refused with
// StatusSingular by every primal loop that can hit a refactor, never a
// panic; Solve-level callers see ErrSingular or a transparent cold
// fallback, and never the values of the corrupt basis.
func TestSingularRefactor(t *testing.T) {
	solved := func() *Solver {
		s := NewSolver(chainModel(t, 12))
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A full eta file makes the very next pivot refactor.
	fillEtaFile := func(st *revised) {
		for st.lu.etas() < refactorEvery {
			st.ftran(int(st.basis[0]))
			st.lu.pushEta(0, st.col) // an identity eta: B⁻¹ of a basic column is a unit vector
		}
	}

	s := solved()
	st := s.t
	st.basis[3] = st.basis[2] // singular: one column twice
	if st.lu.refactor(&st.cols, st.basis) {
		t.Fatal("a basis with a repeated column factorized")
	}

	s = solved()
	st = s.t
	j := st.basis[5]
	for e := st.cols.ptr[j]; e < st.cols.ptr[j+1]; e++ {
		st.cols.val[e] *= 1e-14 // ill-conditioned: a basic column of dust
	}
	if st.lu.refactor(&st.cols, st.basis) {
		t.Fatal("a basis with a 1e-14 column factorized")
	}

	// Primal loop: make a column attractive, corrupt the basis, force the
	// refactor — the loop must give up with StatusSingular.
	s = solved()
	st = s.t
	fillEtaFile(st)
	for j := 0; j < st.nv; j++ {
		if !st.inBasis[j] {
			st.c[j], st.atUpper[j] = -100, false
		}
	}
	st.basis[3] = st.basis[2]
	if status, _ := st.optimize(st.c); status != StatusSingular {
		t.Fatalf("optimize on a singular basis: %v, want %v", status, StatusSingular)
	}
	if err := solveErr(StatusSingular, "m", 0); !errors.Is(err, ErrSingular) || errors.Is(err, ErrIterLimit) {
		t.Fatalf("StatusSingular maps to %v, want ErrSingular alone", err)
	}

	// Warm path: the same corruption under ReSolve is a rejected warm
	// start; the cold fallback rebuilds everything from the model and the
	// answer is the right one, not the corrupt basis's.
	s = solved()
	st = s.t
	fillEtaFile(st)
	capped := VarID(-1) // a basic variable: capping it below its value forces a dual pivot
	for i, bj := range st.basis {
		if i != 2 && i != 3 && int(bj) < st.nv && st.xB[i] > 0.5 {
			capped = VarID(bj)
			if err := s.SetUpper(capped, st.xB[i]/2); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if capped < 0 {
		t.Fatal("no basic structural variable to cap")
	}
	want, err := Solve(cloneModel(s.model))
	if err != nil {
		t.Fatal(err)
	}
	st.basis[3] = st.basis[2]
	got, err := s.ReSolve()
	if err != nil || got.WarmStarted || !almost(got.Objective, want.Objective) {
		t.Fatalf("ReSolve over a singular basis: %+v, %v; want a cold solve to objective %v", got, err, want.Objective)
	}
	if !s.HasBasis() {
		t.Fatal("cold fallback left no basis")
	}
}
