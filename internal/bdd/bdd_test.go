package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustVar(t *testing.T, s *Store, v int) Ref {
	t.Helper()
	r, err := s.Var(v)
	if err != nil {
		t.Fatalf("Var(%d): %v", v, err)
	}
	return r
}

func TestTerminals(t *testing.T) {
	s := MustNewStore(4)
	if s.And(True, False) != False {
		t.Fatal("T AND F != F")
	}
	if s.Or(True, False) != True {
		t.Fatal("T OR F != T")
	}
	if s.Not(True) != False || s.Not(False) != True {
		t.Fatal("NOT on terminals wrong")
	}
	if s.Xor(True, True) != False {
		t.Fatal("T XOR T != F")
	}
	if s.Diff(True, True) != False || s.Diff(True, False) != True {
		t.Fatal("Diff on terminals wrong")
	}
}

func TestNewStoreRejectsBadSize(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Fatal("NewStore(0) should fail")
	}
	if _, err := NewStore(-3); err == nil {
		t.Fatal("NewStore(-3) should fail")
	}
}

func TestVarOutOfRange(t *testing.T) {
	s := MustNewStore(2)
	if _, err := s.Var(2); err == nil {
		t.Fatal("Var(2) on 2-var store should fail")
	}
	if _, err := s.NVar(-1); err == nil {
		t.Fatal("NVar(-1) should fail")
	}
}

func TestCanonicity(t *testing.T) {
	s := MustNewStore(3)
	x, y, z := mustVar(t, s, 0), mustVar(t, s, 1), mustVar(t, s, 2)
	// Two syntactically different constructions of the same function must
	// produce the identical Ref.
	a := s.Or(s.And(x, y), s.And(x, z))
	b := s.And(x, s.Or(y, z))
	if a != b {
		t.Fatalf("distributivity broke canonicity: %s vs %s", s.String(a), s.String(b))
	}
	// De Morgan.
	l := s.Not(s.And(x, y))
	r := s.Or(s.Not(x), s.Not(y))
	if l != r {
		t.Fatal("De Morgan broke canonicity")
	}
}

func TestDoubleNegation(t *testing.T) {
	s := MustNewStore(5)
	x := mustVar(t, s, 3)
	if s.Not(s.Not(x)) != x {
		t.Fatal("double negation is not identity")
	}
}

func TestImplies(t *testing.T) {
	s := MustNewStore(3)
	x, y := mustVar(t, s, 0), mustVar(t, s, 1)
	xy := s.And(x, y)
	if !s.Implies(xy, x) {
		t.Fatal("x∧y should imply x")
	}
	if s.Implies(x, xy) {
		t.Fatal("x should not imply x∧y")
	}
	if !s.Implies(False, x) || !s.Implies(x, True) {
		t.Fatal("terminal implications wrong")
	}
}

func TestSatCount(t *testing.T) {
	s := MustNewStore(4)
	x, y := mustVar(t, s, 0), mustVar(t, s, 1)
	tests := []struct {
		name string
		f    Ref
		want float64
	}{
		{"false", False, 0},
		{"true", True, 16},
		{"x", x, 8},
		{"x and y", s.And(x, y), 4},
		{"x or y", s.Or(x, y), 12},
		{"x xor y", s.Xor(x, y), 8},
	}
	for _, tc := range tests {
		if got := s.SatCount(tc.f); got != tc.want {
			t.Errorf("%s: SatCount = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCube(t *testing.T) {
	s := MustNewStore(8)
	c, err := s.CubeLits([]Literal{{0, true}, {3, false}, {7, true}})
	if err != nil {
		t.Fatalf("Cube: %v", err)
	}
	if got := s.SatCount(c); got != 32 { // 2^(8-3)
		t.Fatalf("SatCount(cube) = %v, want 32", got)
	}
	asg := make([]bool, 8)
	asg[0], asg[7] = true, true
	ok, err := s.Eval(c, asg)
	if err != nil || !ok {
		t.Fatalf("Eval on satisfying assignment = %v, %v", ok, err)
	}
	asg[3] = true
	ok, err = s.Eval(c, asg)
	if err != nil || ok {
		t.Fatalf("Eval on violating assignment = %v, %v", ok, err)
	}
	if _, err := s.CubeLits([]Literal{{9, true}}); err == nil {
		t.Fatal("out-of-range cube variable should fail")
	}
}

func TestAnySat(t *testing.T) {
	s := MustNewStore(6)
	if _, err := s.AnySat(False); err == nil {
		t.Fatal("AnySat(False) should fail")
	}
	x, y := mustVar(t, s, 1), mustVar(t, s, 4)
	f := s.And(x, s.Not(y))
	asg, err := s.AnySat(f)
	if err != nil {
		t.Fatalf("AnySat: %v", err)
	}
	ok, err := s.Eval(f, asg)
	if err != nil || !ok {
		t.Fatalf("AnySat returned non-satisfying assignment %v (%v)", asg, err)
	}
}

func TestEvalNeedsFullAssignment(t *testing.T) {
	s := MustNewStore(4)
	if _, err := s.Eval(True, []bool{true}); err == nil {
		t.Fatal("short assignment should fail")
	}
}

// randomFormula builds a random formula tree and returns both the BDD and a
// reference evaluator closure.
func randomFormula(s *Store, rng *rand.Rand, depth int) (Ref, func([]bool) bool) {
	if depth == 0 || rng.Intn(4) == 0 {
		v := rng.Intn(s.nvars)
		if rng.Intn(2) == 0 {
			r, _ := s.Var(v)
			return r, func(a []bool) bool { return a[v] }
		}
		r, _ := s.NVar(v)
		return r, func(a []bool) bool { return !a[v] }
	}
	l, fl := randomFormula(s, rng, depth-1)
	r, fr := randomFormula(s, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return s.And(l, r), func(a []bool) bool { return fl(a) && fr(a) }
	case 1:
		return s.Or(l, r), func(a []bool) bool { return fl(a) || fr(a) }
	case 2:
		return s.Xor(l, r), func(a []bool) bool { return fl(a) != fr(a) }
	default:
		return s.Diff(l, r), func(a []bool) bool { return fl(a) && !fr(a) }
	}
}

// TestRandomFormulaAgreesWithTruthTable is a property test: BDD evaluation
// must agree with direct formula evaluation on every assignment.
func TestRandomFormulaAgreesWithTruthTable(t *testing.T) {
	const nvars = 6
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := MustNewStore(nvars)
		f, eval := randomFormula(s, rng, 5)
		count := 0.0
		asg := make([]bool, nvars)
		for m := 0; m < 1<<nvars; m++ {
			for v := 0; v < nvars; v++ {
				asg[v] = m&(1<<v) != 0
			}
			got, err := s.Eval(f, asg)
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			want := eval(asg)
			if got != want {
				t.Fatalf("trial %d: Eval(%v) = %v, want %v", trial, asg, got, want)
			}
			if want {
				count++
			}
		}
		if got := s.SatCount(f); got != count {
			t.Fatalf("trial %d: SatCount = %v, truth table says %v", trial, got, count)
		}
	}
}

// TestQuickXorProperties drives the standard XOR algebra via testing/quick.
func TestQuickXorProperties(t *testing.T) {
	s := MustNewStore(8)
	refOf := func(bits uint8) Ref {
		// Build the parity-constrained cube for the low 3 bits of the seed:
		// an arbitrary but deterministic family of functions.
		lits := make([]Literal, 3)
		for v := range lits {
			lits[v] = Literal{Var: v, Val: bits&(1<<v) != 0}
		}
		c, err := s.CubeLits(lits)
		if err != nil {
			t.Fatalf("Cube: %v", err)
		}
		return c
	}
	prop := func(x, y uint8) bool {
		a, b := refOf(x), refOf(y)
		// a XOR b XOR b == a
		return s.Xor(s.Xor(a, b), b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharingKeepsStoreSmall(t *testing.T) {
	s := MustNewStore(16)
	// Building the same function 100 times must not grow the node table.
	f := func() Ref {
		r := True
		for v := 0; v < 16; v++ {
			x, _ := s.Var(v)
			if v%2 == 0 {
				r = s.And(r, x)
			} else {
				r = s.And(r, s.Not(x))
			}
		}
		return r
	}
	first := f()
	size := s.Size()
	for i := 0; i < 100; i++ {
		if f() != first {
			t.Fatal("rebuild produced different Ref")
		}
	}
	if s.Size() != size {
		t.Fatalf("store grew from %d to %d on identical rebuilds", size, s.Size())
	}
}

func TestEquivAndString(t *testing.T) {
	s := MustNewStore(2)
	x := mustVar(t, s, 0)
	y := mustVar(t, s, 1)
	if s.And(x, y) != s.And(y, x) {
		t.Fatal("commutativity should make equivalent Refs")
	}
	if x == y {
		t.Fatal("distinct variables must differ")
	}
	if got := s.String(False); got != "F" {
		t.Fatalf("String(False) = %q", got)
	}
	if got := s.String(x); got != "(x0?T:F)" {
		t.Fatalf("String(x) = %q", got)
	}
}
