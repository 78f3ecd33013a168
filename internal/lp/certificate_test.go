package lp

import (
	"math"
	"strings"
	"testing"
)

// TestCheckCertificate runs the checker by hand on Dantzig's textbook LP
// (min −3x−5y, x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18; optimum (2, 6), duals
// (0, −3/2, −1)) and on every way a claimed certificate can be wrong.
func TestCheckCertificate(t *testing.T) {
	m := NewModel("textbook")
	x := addVar(t, m, "x", 0, math.Inf(1), -3)
	y := addVar(t, m, "y", 0, math.Inf(1), -5)
	addCon(t, m, "c1", LE, 4, Term{x, 1})
	addCon(t, m, "c2", LE, 12, Term{y, 2})
	addCon(t, m, "c3", LE, 18, Term{x, 3}, Term{y, 2})

	cases := []struct {
		name   string
		values []float64
		duals  []float64
		want   string // substring of the error; "" means accepted
	}{
		{"optimal", []float64{2, 6}, []float64{0, -1.5, -1}, ""},
		{"short values", []float64{2}, []float64{0, -1.5, -1}, "values for"},
		{"short duals", []float64{2, 6}, []float64{0, -1.5}, "duals for"},
		{"NaN value", []float64{math.NaN(), 6}, []float64{0, -1.5, -1}, "x = NaN"},
		{"row violated", []float64{2, 7}, []float64{0, -1.5, -1}, "> rhs"},
		{"bound violated", []float64{-1, 6}, []float64{0, -1.5, -1}, "outside"},
		{"wrong dual sign", []float64{2, 6}, []float64{0, 1.5, -1}, "on a <= row"},
		{"slack row priced", []float64{2, 6}, []float64{-1, -1.5, -1}, "slack"},
		{"suboptimal vertex", []float64{4, 3}, []float64{-3, 0, 0}, "reduced cost"},
		{"feasible duals of another vertex", []float64{4, 3}, []float64{0, -1.5, -1}, "slack"},
	}
	for _, tc := range cases {
		err := CheckCertificate(m, tc.values, tc.duals)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckCertificateBounds covers the bounded-variable half: a variable
// resting at its upper bound carries a negative reduced cost, a fixed one
// any sign, and a variable strictly inside its bounds none.
func TestCheckCertificateBounds(t *testing.T) {
	m := NewModel("bounds")
	x := addVar(t, m, "x", 1, 7, -1) // rests at 7
	f := addVar(t, m, "f", 3, 3, 5)  // fixed
	z := addVar(t, m, "z", 0, 10, 0) // free to sit anywhere the row lets it
	addCon(t, m, "sum", GE, 12, Term{x, 1}, Term{f, 1}, Term{z, 1})
	if err := CheckCertificate(m, []float64{7, 3, 2}, []float64{0}); err != nil {
		t.Errorf("optimal point rejected: %v", err)
	}
	if err := CheckCertificate(m, []float64{5, 3, 4}, []float64{0}); err == nil ||
		!strings.Contains(err.Error(), "below its upper bound") {
		t.Errorf("x inside its bounds with reduced cost −1: %v", err)
	}
	// y = 1 would make z's reduced cost −1 while z is not at its upper bound.
	if err := CheckCertificate(m, []float64{7, 3, 2}, []float64{1}); err == nil {
		t.Error("priced ≥ row with z strictly inside its bounds accepted")
	}
	// An infinite upper bound can never carry a negative reduced cost.
	u := NewModel("unbounded-side")
	w := addVar(t, u, "w", 0, math.Inf(1), -1)
	addCon(t, u, "c", GE, 1, Term{w, 1})
	if err := CheckCertificate(u, []float64{1}, []float64{0}); err == nil {
		t.Error("negative reduced cost on an unbounded variable accepted")
	}
}

// TestDualsLifecycle: no basis, no duals; after an optimal solve there is
// one per row and the certificate holds (TestMain's hook checked it).
func TestDualsLifecycle(t *testing.T) {
	m := NewModel("duals")
	x := addVar(t, m, "x", 0, math.Inf(1), 1)
	y := addVar(t, m, "y", 0, math.Inf(1), 2)
	addCon(t, m, "need", GE, 4, Term{x, 1}, Term{y, 1})
	addCon(t, m, "cap", LE, 3, Term{x, 1})
	s := NewSolver(m)
	if s.Duals() != nil {
		t.Fatal("Duals before any solve should be nil")
	}
	before := certified
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if certified != before+1 {
		t.Fatalf("TestMain's certificate hook ran %d times for one solve", certified-before)
	}
	// min x+2y, x+y ≥ 4, x ≤ 3 → (3, 1): y prices the ≥ row at 2 and the
	// cap at −1 (one more unit of x saves a unit of y).
	d := s.Duals()
	if len(d) != 2 || !almost(d[0], 2) || !almost(d[1], -1) {
		t.Fatalf("duals = %v, want [2 -1]", d)
	}
}
