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
// variable (the relaxation rounding of core.extractCounts). TestMain's
// hook certifies every optimal sparse solve besides.
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

func (p *enginePair) compare(what string, s, d Solution, serr, derr error) (Solution, error) {
	p.t.Helper()
	if s.Status != d.Status || (serr == nil) != (derr == nil) {
		p.t.Fatalf("%s: sparse %v (%v), dense %v (%v)", what, s.Status, serr, d.Status, derr)
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
			p.t.Fatalf("%s: %s rounds to %v, dense to %v (%v vs %v)", what, v.name, qs, qd, s.Values[j], d.Values[j])
		}
	}
	p.Dense = d
	return s, nil
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
	nv := 1 + next()%maxVars
	for j := 0; j < nv; j++ {
		b := next()
		lo := float64(b % 3)
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
		if b/3%5 == 0 && i > 0 {
			// Repeat the previous row: redundant when it is an equality,
			// and a duplicate-term merge when the same variable recurs.
			prev := m.cons[len(m.cons)-1]
			if err := m.AddConstraint("dup", prev.sense, prev.rhs, prev.terms...); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", i), Sense(1+b/15%3), float64(next()%13-3), terms...); err != nil {
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
	f.Fuzz(func(t *testing.T, data []byte) { runSolverOps(t, data) })
}

// TestSolverOpsRandom runs the FuzzSolverOps body over generated sequences,
// so plain `go test` covers them too.
func TestSolverOpsRandom(t *testing.T) {
	before := certified
	for seed := int64(0); seed < 400; seed++ {
		runSolverOps(t, solverOpsSeed(seed, 40+int(seed%120)))
	}
	if certified-before < 400 {
		t.Fatalf("only %d optimal solves certified over 400 sequences: the generator is degenerate", certified-before)
	}
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

// TestRedundantRowsKeepPlaceholderBasic: three copies of one equality leave
// phase 1 with two artificials basic at zero. Eviction swaps each for a
// real column when the row offers one — here only a fixed slack of a
// sibling row does — so two basis positions end up held by zero-valued
// placeholders (an artificial, or a slack pinned to [0,0]). The basis must
// keep factorizing with them in it, through warm re-solves, and a bound
// change that breaks the equality must still be reported infeasible.
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

// chainModel is n equalities x_i + x_{i+1} = 2 over n+1 variables with
// costs that alternate in sign: every row needs an artificial, so phase 1
// alone outlasts the eta file several times over.
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

// TestRefactorMidPhase1: the fixed refactor schedule fires while
// artificials are still basic and the phase-1 cost vector is live; the
// solve must carry on to the dense reference's optimum.
func TestRefactorMidPhase1(t *testing.T) {
	p := newEnginePair(t, chainModel(t, 3*refactorEvery))
	sol, err := p.Solve("cold")
	if err != nil {
		t.Fatal(err)
	}
	if sol.Phase1Iterations <= refactorEvery {
		t.Fatalf("phase 1 took %d pivots: no refactor landed inside it (schedule: every %d)",
			sol.Phase1Iterations, refactorEvery)
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

// TestWarmInfeasibleConfirmedCold: a re-solve the dual simplex finds
// infeasible is re-derived by a cold solve before it is reported, leaves no
// basis and no values behind, and the solver recovers once the bound is
// restored.
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
	sol, err := p.ReSolve("cap")
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if sol.WarmStarted || sol.Phase1Iterations == 0 {
		t.Fatalf("infeasibility not confirmed by a cold two-phase solve: %+v", sol)
	}
	if p.sparse.HasBasis() || p.sparse.Duals() != nil || p.sparse.RestingAtUpper(y) {
		t.Fatal("infeasible solve left a basis behind")
	}
	p.SetBounds(x, 0, 2)
	if sol, err = p.ReSolve("restore"); err != nil || !almost(sol.Objective, 3.5) || sol.WarmStarted {
		t.Fatalf("after restore: %+v, %v", sol, err)
	}
}

// TestSingularRefactor: a basis that does not factorize — two positions
// claiming one column, or a column scaled to nothing — is refused with
// StatusIterLimit by every loop that can hit a refactor, never a panic;
// Solve-level callers see ErrIterLimit or a transparent cold fallback, and
// never the values of the corrupt basis.
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
	// refactor — the loop must give up with StatusIterLimit.
	s = solved()
	st = s.t
	fillEtaFile(st)
	for j := 0; j < st.nv; j++ {
		if !st.inBasis[j] {
			st.c[j], st.atUpper[j] = -100, false
		}
	}
	st.basis[3] = st.basis[2]
	if status, _ := st.optimize(st.c, false); status != StatusIterLimit {
		t.Fatalf("optimize on a singular basis: %v, want %v", status, StatusIterLimit)
	}
	if err := solveErr(StatusIterLimit, "m", 0); !errors.Is(err, ErrIterLimit) {
		t.Fatalf("StatusIterLimit maps to %v", err)
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
