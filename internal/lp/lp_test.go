package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func addVar(t *testing.T, m *Model, name string, lo, hi, obj float64) VarID {
	t.Helper()
	v, err := m.AddVariable(name, lo, hi, obj)
	if err != nil {
		t.Fatalf("AddVariable(%s): %v", name, err)
	}
	return v
}

func addCon(t *testing.T, m *Model, name string, s Sense, rhs float64, terms ...Term) {
	t.Helper()
	if err := m.AddConstraint(name, s, rhs, terms...); err != nil {
		t.Fatalf("AddConstraint(%s): %v", name, err)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestTextbookLP solves max 3x+5y s.t. x≤4, 2y≤12, 3x+2y≤18 (Dantzig's
// classic), whose optimum is x=2, y=6, objective 36.
func TestTextbookLP(t *testing.T) {
	m := NewModel("textbook")
	x := addVar(t, m, "x", 0, math.Inf(1), -3) // minimize -3x-5y
	y := addVar(t, m, "y", 0, math.Inf(1), -5)
	addCon(t, m, "c1", LE, 4, Term{x, 1})
	addCon(t, m, "c2", LE, 12, Term{y, 2})
	addCon(t, m, "c3", LE, 18, Term{x, 3}, Term{y, 2})
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, -36) || !almost(sol.Value(x), 2) || !almost(sol.Value(y), 6) {
		t.Fatalf("got obj=%v x=%v y=%v, want -36, 2, 6", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+y s.t. x+y = 10, x ≥ 3, y ≥ 2  →  objective 10.
	m := NewModel("eq")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, math.Inf(1), 1)
	addCon(t, m, "sum", EQ, 10, Term{x, 1}, Term{y, 1})
	addCon(t, m, "xmin", GE, 3, Term{x, 1})
	addCon(t, m, "ymin", GE, 2, Term{y, 1})
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, 10) {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
	if sol.Value(x) < 3-1e-9 || sol.Value(y) < 2-1e-9 {
		t.Fatalf("bounds violated: x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel("infeasible")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	addCon(t, m, "lo", GE, 5, Term{x, 1})
	addCon(t, m, "hi", LE, 3, Term{x, 1})
	_, err := Solve(m)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel("unbounded")
	x := addVar(t, m, "x", 0, math.Inf(1), -1)
	addCon(t, m, "c", GE, 1, Term{x, 1})
	_, err := Solve(m)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestEmptyModel(t *testing.T) {
	if _, err := Solve(NewModel("empty")); !errors.Is(err, ErrEmptyModel) {
		t.Fatalf("err = %v, want ErrEmptyModel", err)
	}
}

func TestVariableBounds(t *testing.T) {
	// min -x with x in [1, 7] → x = 7.
	m := NewModel("bounds")
	x := addVar(t, m, "x", 1, 7, -1)
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 7) {
		t.Fatalf("x = %v, want 7", sol.Value(x))
	}
	// min +x → x = 1 (lower bound honored through shifting).
	m2 := NewModel("bounds2")
	y := addVar(t, m2, "y", 1, 7, 1)
	sol2, err := Solve(m2)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol2.Value(y), 1) {
		t.Fatalf("y = %v, want 1", sol2.Value(y))
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x with x in [-5, 5] and x ≥ -2 → x = -2.
	m := NewModel("neg")
	x := addVar(t, m, "x", -5, 5, 1)
	addCon(t, m, "c", GE, -2, Term{x, 1})
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), -2) {
		t.Fatalf("x = %v, want -2", sol.Value(x))
	}
}

func TestAddVariableValidation(t *testing.T) {
	m := NewModel("v")
	if _, err := m.AddVariable("bad", 5, 1, 0); err == nil {
		t.Error("lo > hi should fail")
	}
	if _, err := m.AddVariable("nan", math.NaN(), 1, 0); err == nil {
		t.Error("NaN bound should fail")
	}
	if _, err := m.AddVariable("free", math.Inf(-1), 1, 0); err == nil {
		t.Error("free variable should fail")
	}
}

func TestAddConstraintValidation(t *testing.T) {
	m := NewModel("c")
	x := addVar(t, m, "x", 0, 1, 0)
	if err := m.AddConstraint("bad-sense", Sense(0), 1, Term{x, 1}); err == nil {
		t.Error("bad sense should fail")
	}
	if err := m.AddConstraint("bad-var", LE, 1, Term{VarID(9), 1}); err == nil {
		t.Error("unknown variable should fail")
	}
	if err := m.AddConstraint("bad-rhs", LE, math.Inf(1), Term{x, 1}); err == nil {
		t.Error("infinite rhs should fail")
	}
	if err := m.AddConstraint("bad-coef", LE, 1, Term{x, math.NaN()}); err == nil {
		t.Error("NaN coefficient should fail")
	}
}

// TestStreamedRowsMatchAddConstraint: a row built term by term with
// AddTerm and closed by EndConstraint lands in the row store exactly as
// AddConstraint puts it — duplicates summed in first-appearance order,
// zeros dropped — and a row EndConstraint refuses leaves no pending term
// behind for the next one.
func TestStreamedRowsMatchAddConstraint(t *testing.T) {
	terms := func(x, y, z VarID) []Term {
		return []Term{{z, 2}, {x, 1}, {z, -2}, {y, 0.5}, {x, 0.25}, {y, -0.25}, {x, 3}}
	}
	built, streamed := NewModel("built"), NewModel("streamed")
	streamed.Reserve(3, 2, 8)
	for _, m := range []*Model{built, streamed} {
		for _, name := range []string{"x", "y", "z"} {
			addVar(t, m, name, 0, 1, 0)
		}
	}
	addCon(t, built, "r", LE, 1, terms(0, 1, 2)...)
	for _, bad := range []struct {
		v    VarID
		coef float64
	}{{7, 1}, {0, math.NaN()}} {
		streamed.AddTerm(1, 4)
		streamed.AddTerm(bad.v, bad.coef)
		if err := streamed.EndConstraint("bad", LE, 1); err == nil {
			t.Fatalf("EndConstraint accepted the term %v·x%d", bad.coef, bad.v)
		}
	}
	for _, tm := range terms(0, 1, 2) {
		streamed.AddTerm(tm.Var, tm.Coef)
	}
	if err := streamed.EndConstraint("r", LE, 1); err != nil {
		t.Fatal(err)
	}
	if streamed.NumConstraints() != 1 {
		t.Fatalf("%d constraints after one accepted and two refused rows", streamed.NumConstraints())
	}
	want := []Term{{0, 4.25}, {1, 0.25}}
	for _, m := range []*Model{built, streamed} {
		if got := rowTerms(m, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: row %v, want %v", m.Name(), got, want)
		}
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// x + x ≤ 4 must behave as 2x ≤ 4.
	m := NewModel("dup")
	x := addVar(t, m, "x", 0, math.Inf(1), -1)
	addCon(t, m, "c", LE, 4, Term{x, 1}, Term{x, 1})
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Value(x), 2) {
		t.Fatalf("x = %v, want 2", sol.Value(x))
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Same constraint three times; one EQ duplicated — leaves fixed slacks
	// of redundant rows basic at zero.
	m := NewModel("degenerate")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, math.Inf(1), 1)
	for i := 0; i < 3; i++ {
		addCon(t, m, "dup", EQ, 6, Term{x, 1}, Term{y, 1})
	}
	addCon(t, m, "x2", GE, 2, Term{x, 1})
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almost(sol.Objective, 6) {
		t.Fatalf("objective = %v, want 6", sol.Objective)
	}
}

func TestSolutionValueOutOfRange(t *testing.T) {
	s := Solution{Values: []float64{1}}
	if !math.IsNaN(s.Value(5)) || !math.IsNaN(s.Value(-1)) {
		t.Fatal("out-of-range Value should be NaN")
	}
}

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("sense strings wrong")
	}
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" ||
		StatusUnbounded.String() != "unbounded" || StatusIterLimit.String() != "iteration-limit" {
		t.Fatal("status strings wrong")
	}
	if Sense(9).String() == "" || Status(9).String() == "" {
		t.Fatal("unknown enum should still render")
	}
}

func TestMILPKnapsack(t *testing.T) {
	// max 10a+13b+7c s.t. 3a+4b+2c ≤ 6, binary → best is a+c? values:
	// a+c = 17 weight 5; b+c = 20 weight 6 → optimum 20.
	m := NewModel("knapsack")
	a := addVar(t, m, "a", 0, 1, -10)
	b := addVar(t, m, "b", 0, 1, -13)
	c := addVar(t, m, "c", 0, 1, -7)
	for _, v := range []VarID{a, b, c} {
		if err := m.SetInteger(v); err != nil {
			t.Fatal(err)
		}
	}
	addCon(t, m, "w", LE, 6, Term{a, 3}, Term{b, 4}, Term{c, 2})
	sol, err := SolveMILP(m, MILPOptions{})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if !almost(sol.Objective, -20) {
		t.Fatalf("objective = %v, want -20", sol.Objective)
	}
	if !almost(sol.Value(b), 1) || !almost(sol.Value(c), 1) || !almost(sol.Value(a), 0) {
		t.Fatalf("solution = %v %v %v", sol.Value(a), sol.Value(b), sol.Value(c))
	}
}

func TestMILPIntegerRounding(t *testing.T) {
	// min x s.t. 2x ≥ 5, x integer → x = 3 (LP gives 2.5).
	m := NewModel("roundup")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	if err := m.SetInteger(x); err != nil {
		t.Fatal(err)
	}
	addCon(t, m, "c", GE, 5, Term{x, 2})
	sol, err := SolveMILP(m, MILPOptions{})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if sol.Value(x) != 3 {
		t.Fatalf("x = %v, want 3", sol.Value(x))
	}
}

func TestMILPNoIntegerVarsEqualsLP(t *testing.T) {
	m := NewModel("pure-lp")
	addVar(t, m, "x", 0, 10, -1)
	lpSol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	milpSol, err := SolveMILP(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lpSol.Objective != milpSol.Objective {
		t.Fatalf("MILP %v != LP %v", milpSol.Objective, lpSol.Objective)
	}
}

func TestMILPInfeasible(t *testing.T) {
	// 0.4 ≤ x ≤ 0.6, x integer: no integral point.
	m := NewModel("milp-infeasible")
	x := addVar(t, m, "x", 0.4, 0.6, 1)
	if err := m.SetInteger(x); err != nil {
		t.Fatal(err)
	}
	_, err := SolveMILP(m, MILPOptions{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestMILPNodeLimitIsNotOptimal is Jeroslow's parity row: 2·Σxᵢ + y = n
// with n odd, the xᵢ binary and y a unit-cost binary escape. Every
// integral point has y = 1, but the relaxation reaches 0 at every node
// that fixes fewer than about n/2 of the xᵢ, so proving the optimum takes
// exponentially many nodes. At n = 5 the search closes and reports the
// optimum; at n = 15 it reaches the node limit with the incumbent found
// and its bound still open, which is not a proof.
func TestMILPNodeLimitIsNotOptimal(t *testing.T) {
	parity := func(n int) *Model { return parityModel(t, n) }
	sol, err := SolveMILP(parity(5), MILPOptions{})
	if err != nil || sol.Status != StatusOptimal || !almost(sol.Objective, 1) {
		t.Fatalf("n=5: status %v objective %v err %v, want the proved optimum 1", sol.Status, sol.Objective, err)
	}
	sol, err = SolveMILP(parity(15), MILPOptions{})
	if !errors.Is(err, ErrIterLimit) || sol.Status != StatusIterLimit {
		t.Fatalf("n=15: status %v err %v, want ErrIterLimit", sol.Status, err)
	}
	if !almost(sol.Objective, 1) || sol.Nodes != maxNodes {
		t.Fatalf("n=15: incumbent objective %v after %d nodes, want 1 after %d", sol.Objective, sol.Nodes, maxNodes)
	}
	sum := sol.Values[0]
	for _, x := range sol.Values[1:] {
		sum += 2 * x
	}
	if sum != 15 {
		t.Fatalf("n=15: incumbent %v does not satisfy the parity row", sol.Values)
	}
}

// parityModel is Jeroslow's parity row over n binaries plus the escape y.
func parityModel(t *testing.T, n int) *Model {
	t.Helper()
	m := NewModel(fmt.Sprintf("jeroslow-%d", n))
	y := addVar(t, m, "y", 0, 1, 1)
	terms := []Term{{y, 1}}
	for i := 0; i < n; i++ {
		terms = append(terms, Term{addVar(t, m, fmt.Sprintf("x%d", i), 0, 1, 0), 2})
	}
	for _, tm := range terms {
		if err := m.SetInteger(tm.Var); err != nil {
			t.Fatal(err)
		}
	}
	addCon(t, m, "parity", EQ, float64(n), terms...)
	return m
}

// TestMILPSkipsNodeAtPivotLimit: a node whose LP runs out of pivots, or
// meets a basis that does not factorize, is skipped, not the end of the
// search. On the n = 5 parity row the second node's re-solve is made to
// return ErrIterLimit, then ErrSingular; the search goes on and finds the
// incumbent 1, but the skipped node's bound, the root's 0, is below it, so
// the result is no proof: StatusIterLimit and ErrIterLimit, exactly as
// when the node limit leaves a node open.
func TestMILPSkipsNodeAtPivotLimit(t *testing.T) {
	for _, tc := range []struct {
		status Status
		err    error
	}{{StatusIterLimit, ErrIterLimit}, {StatusSingular, ErrSingular}} {
		t.Run(tc.status.String(), func(t *testing.T) {
			calls, after := 0, 0
			resolveNode = func(s *Solver) (Solution, error) {
				calls++
				if calls == 2 {
					return Solution{Status: tc.status}, fmt.Errorf("%w: injected", tc.err)
				}
				if calls > 2 {
					after++
				}
				return s.ReSolve()
			}
			defer func() { resolveNode = (*Solver).ReSolve }()
			sol, err := SolveMILP(parityModel(t, 5), MILPOptions{})
			if after == 0 {
				t.Fatalf("the search stopped at the skipped node: %v", err)
			}
			if !errors.Is(err, ErrIterLimit) || sol.Status != StatusIterLimit {
				t.Fatalf("status %v, err %v after a skipped node below the incumbent; want ErrIterLimit", sol.Status, err)
			}
			if sol.Values == nil || !almost(sol.Objective, 1) {
				t.Fatalf("incumbent %v (objective %v), want the parity optimum 1", sol.Values, sol.Objective)
			}
			t.Logf("%d nodes re-solved after the skipped one; %v", after, err)
		})
	}
}

func TestSetIntegerValidation(t *testing.T) {
	m := NewModel("si")
	if err := m.SetInteger(VarID(3)); err == nil {
		t.Fatal("unknown variable should fail")
	}
	x := addVar(t, m, "x", 0, 1, 0)
	if m.IsInteger(x) {
		t.Fatal("fresh variable should not be integer")
	}
	if err := m.SetInteger(x); err != nil {
		t.Fatal(err)
	}
	if !m.IsInteger(x) {
		t.Fatal("SetInteger did not stick")
	}
}

func TestVariableName(t *testing.T) {
	m := NewModel("names")
	x := addVar(t, m, "alpha", 0, 1, 0)
	if m.VariableName(x) != "alpha" {
		t.Fatal("name lost")
	}
	if m.VariableName(VarID(99)) == "" {
		t.Fatal("unknown name should still render")
	}
}

// indexNamer names variable v "v<v>" and row i "row<i>".
type indexNamer struct{}

func (indexNamer) VariableName(v VarID) string { return fmt.Sprintf("v%d", v) }
func (indexNamer) ConstraintName(i int) string { return fmt.Sprintf("row%d", i) }

// TestNamerNamesTheRest: with a Namer set, a name given to AddVariable or
// EndConstraint still comes back, every other name is the Namer's, and an
// error about a variable or row being added names it by the Namer too.
func TestNamerNamesTheRest(t *testing.T) {
	m := NewModel("named")
	m.SetNamer(indexNamer{})
	x := addVar(t, m, "alpha", 0, 1, 0)
	y := addVar(t, m, "", 0, 1, 0)
	if err := m.AddConstraint("cap", LE, 1, Term{x, 1}, Term{y, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint("", GE, 0, Term{x, 1}); err != nil {
		t.Fatal(err)
	}
	got := []string{m.VariableName(x), m.VariableName(y), m.ConstraintName(0), m.ConstraintName(1)}
	if want := []string{"alpha", "v1", "cap", "row1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names %q, want %q", got, want)
	}
	if _, err := m.AddVariable("", 1, 0, 0); err == nil || err.Error() != `lp: variable "v2": lower bound 1 above upper bound 0` {
		t.Errorf("crossed bounds on a new variable: %v", err)
	}
	if err := m.SetBounds(y, math.NaN(), 1); err == nil || err.Error() != `lp: NaN bound for variable "v1"` {
		t.Errorf("a NaN bound: %v", err)
	}
	if err := m.AddConstraint("", LE, math.Inf(1), Term{x, 1}); err == nil || err.Error() != `lp: constraint "row2": bad rhs +Inf` {
		t.Errorf("an infinite rhs on a new row: %v", err)
	}
}

// TestRandomLPsAgainstBruteForce generates small random LPs over bounded
// boxes and cross-checks the simplex optimum against dense grid search on
// the vertices (implied by checking feasibility of a fine grid; for box +
// few constraints an LP optimum is attained at a grid-enclosed face within
// tolerance of the best grid point).
func TestRandomLPsAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		m := NewModel("rand")
		n := 2 + rng.Intn(2) // 2..3 vars
		vars := make([]VarID, n)
		objs := make([]float64, n)
		for j := 0; j < n; j++ {
			objs[j] = float64(rng.Intn(11) - 5)
			vars[j] = addVar(t, m, "x", 0, 4, objs[j])
		}
		type con struct {
			coefs []float64
			rhs   float64
		}
		var cons []con
		nc := 1 + rng.Intn(3)
		for k := 0; k < nc; k++ {
			c := con{coefs: make([]float64, n)}
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				c.coefs[j] = float64(rng.Intn(5))
				terms[j] = Term{vars[j], c.coefs[j]}
			}
			c.rhs = float64(rng.Intn(12))
			cons = append(cons, c)
			addCon(t, m, "c", LE, c.rhs, terms...)
		}
		sol, err := Solve(m)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				// x = 0 is always feasible for LE with rhs ≥ 0, so this
				// must not happen.
				t.Fatalf("trial %d: infeasible but origin is feasible", trial)
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Grid search with integer steps: constraints and bounds have
		// integer data, so an optimal vertex has rational coordinates; the
		// grid gives a lower bound on quality we must at least match.
		bestGrid := math.Inf(1)
		var rec func(j int, x []float64)
		rec = func(j int, x []float64) {
			if j == n {
				for _, c := range cons {
					lhs := 0.0
					for i := range x {
						lhs += c.coefs[i] * x[i]
					}
					if lhs > c.rhs+1e-9 {
						return
					}
				}
				obj := 0.0
				for i := range x {
					obj += objs[i] * x[i]
				}
				if obj < bestGrid {
					bestGrid = obj
				}
				return
			}
			for v := 0.0; v <= 4.0; v += 0.5 {
				x[j] = v
				rec(j+1, x)
			}
		}
		rec(0, make([]float64, n))
		if sol.Objective > bestGrid+1e-6 {
			t.Fatalf("trial %d: simplex %v worse than grid %v", trial, sol.Objective, bestGrid)
		}
		// And the returned point must be feasible.
		for ci, c := range cons {
			lhs := 0.0
			for j := range vars {
				lhs += c.coefs[j] * sol.Value(vars[j])
			}
			if lhs > c.rhs+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, ci, lhs, c.rhs)
			}
		}
		for j := range vars {
			x := sol.Value(vars[j])
			if x < -1e-9 || x > 4+1e-9 {
				t.Fatalf("trial %d: bound violated: %v", trial, x)
			}
		}
	}
}

// TestMILPMatchesExhaustive cross-checks branch and bound against full
// enumeration on random small integer programs.
func TestMILPMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		m := NewModel("milp-rand")
		const n = 3
		vars := make([]VarID, n)
		objs := make([]float64, n)
		for j := 0; j < n; j++ {
			objs[j] = float64(rng.Intn(9) - 4)
			vars[j] = addVar(t, m, "x", 0, 3, objs[j])
			if err := m.SetInteger(vars[j]); err != nil {
				t.Fatal(err)
			}
		}
		coefs := make([]float64, n)
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			coefs[j] = float64(1 + rng.Intn(4))
			terms[j] = Term{vars[j], coefs[j]}
		}
		rhs := float64(3 + rng.Intn(10))
		addCon(t, m, "cap", LE, rhs, terms...)
		sol, err := SolveMILP(m, MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := math.Inf(1)
		for a := 0; a <= 3; a++ {
			for b := 0; b <= 3; b++ {
				for c := 0; c <= 3; c++ {
					x := []float64{float64(a), float64(b), float64(c)}
					lhs := 0.0
					obj := 0.0
					for j := 0; j < n; j++ {
						lhs += coefs[j] * x[j]
						obj += objs[j] * x[j]
					}
					if lhs <= rhs && obj < best {
						best = obj
					}
				}
			}
		}
		if !almost(sol.Objective, best) {
			t.Fatalf("trial %d: B&B %v, exhaustive %v", trial, sol.Objective, best)
		}
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel("counts")
	if m.Name() != "counts" || m.NumVariables() != 0 || m.NumConstraints() != 0 {
		t.Fatal("fresh model accessors wrong")
	}
	x := addVar(t, m, "x", 0, 1, 0)
	addCon(t, m, "c", LE, 1, Term{x, 1})
	if m.NumVariables() != 1 || m.NumConstraints() != 1 {
		t.Fatal("counters wrong after adds")
	}
}

// TestBealeCycling solves Beale's 1955 example, the classic LP on which
// Dantzig's rule with lowest-index tie-breaks cycles through six
// degenerate bases and never leaves the starting vertex:
//
//	min −¾x4 + 20x5 − ½x6 + 6x7
//	s.t. ¼x4 −  8x5 −  x6 + 9x7 ≤ 0
//	     ½x4 − 12x5 − ½x6 + 3x7 ≤ 0
//	                    x6       ≤ 1,   x ≥ 0
//
// The slacks of the three rows are the textbook x1–x3 and the starting
// basis. The solver must reach the optimum −5/4 at x4 = x6 = 1 with a
// valid certificate, within a few pivots of blandRun: a cycle is a run of
// degenerate pivots, and Bland's rule takes over at the end of that run.
// The log says whether today's pricing cycled.
func TestBealeCycling(t *testing.T) {
	m := NewModel("beale")
	x4 := addVar(t, m, "x4", 0, math.Inf(1), -0.75)
	x5 := addVar(t, m, "x5", 0, math.Inf(1), 20)
	x6 := addVar(t, m, "x6", 0, math.Inf(1), -0.5)
	x7 := addVar(t, m, "x7", 0, math.Inf(1), 6)
	addCon(t, m, "r1", LE, 0, Term{x4, 0.25}, Term{x5, -8}, Term{x6, -1}, Term{x7, 9})
	addCon(t, m, "r2", LE, 0, Term{x4, 0.5}, Term{x5, -12}, Term{x6, -0.5}, Term{x7, 3})
	addCon(t, m, "r3", LE, 1, Term{x6, 1})
	s := NewSolver(m)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, -1.25) || !almost(sol.Value(x4), 1) || !almost(sol.Value(x6), 1) ||
		!almost(sol.Value(x5), 0) || !almost(sol.Value(x7), 0) {
		t.Fatalf("objective %v at %v, want −1.25 at x4 = x6 = 1", sol.Objective, sol.Values)
	}
	if err := CheckCertificate(m, sol.Values, s.Duals()); err != nil {
		t.Fatal(err)
	}
	cycled := sol.Iterations >= blandRun
	t.Logf("Dantzig's rule cycled: %t; %d pivots (dual %d, phase 2 %d)",
		cycled, sol.Iterations, sol.DualIterations, sol.Phase2Iterations)
	if sol.Iterations > blandRun+8 {
		t.Fatalf("%d pivots, more than blandRun+8 = %d: the switch to Bland's rule did not end the cycle", sol.Iterations, blandRun+8)
	}
}
