package bdd

import (
	"math/rand"
	"testing"
)

// TestCubeLits: the bottom-up builder returns the node the conjunction of
// the literals has, without a single Apply step, and refuses what it
// cannot build that way.
func TestCubeLits(t *testing.T) {
	s := MustNewStore(80)
	lits := []Literal{{Var: 2, Val: true}, {Var: 3, Val: false}, {Var: 70, Val: true}}
	want := True
	for _, l := range lits {
		v := mustVar(t, s, l.Var)
		if !l.Val {
			v = s.Not(v)
		}
		want = s.And(want, v)
	}
	steps := s.Applies()
	got, err := s.CubeLits(lits)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CubeLits = %s, want %s", s.String(got), s.String(want))
	}
	if s.Applies() != steps {
		t.Fatalf("CubeLits took %d Apply steps", s.Applies()-steps)
	}
	if r, err := s.CubeLits(nil); err != nil || r != True {
		t.Fatalf("empty cube = %v, %v; want True", r, err)
	}
	for _, bad := range [][]Literal{
		{{Var: 80, Val: true}},
		{{Var: -1}},
		{{Var: 5, Val: true}, {Var: 5, Val: false}},
		{{Var: 7}, {Var: 3}},
	} {
		if _, err := s.CubeLits(bad); err == nil {
			t.Errorf("CubeLits(%v) should fail", bad)
		}
	}
}

// TestEvalBitsMatchesEval: the packed evaluation agrees with the []bool
// one on random functions that span both words.
func TestEvalBitsMatchesEval(t *testing.T) {
	const nvars = 72
	rng := rand.New(rand.NewSource(3))
	s := MustNewStore(nvars)
	for trial := 0; trial < 50; trial++ {
		f := False
		for term := 0; term < 4; term++ {
			cube := True
			for k := 0; k < 5; k++ {
				v := mustVar(t, s, rng.Intn(nvars))
				if rng.Intn(2) == 0 {
					v = s.Not(v)
				}
				cube = s.And(cube, v)
			}
			f = s.Or(f, cube)
		}
		for probe := 0; probe < 40; probe++ {
			asg := make([]bool, nvars)
			var words [2]uint64
			for v := range asg {
				if asg[v] = rng.Intn(2) == 0; asg[v] {
					words[v/64] |= 1 << uint(63-v%64)
				}
			}
			want, err := s.Eval(f, asg)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.EvalBits(f, words[:]); got != want {
				t.Fatalf("trial %d: EvalBits = %v, Eval = %v", trial, got, want)
			}
		}
	}
}
