package lp_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/lp"
)

// TestPaperModelsMatchDenseReference is the dense-vs-sparse differential on
// the models the engines really solve: the four paper scenarios, scenario
// seeds 1 and 2, both formulations. Each model is solved cold by the
// production engine and by the dense tableau it replaced, then driven
// through the same 24 warm re-solves — the scenario's snapshot rates on the
// parametric model (what IncrementalEngine.Place does), a walk of instance
// caps on the σ-eliminated one (what round-and-repair does). After every
// step the pair checks status, objective and rounded instance counts, and
// TestMain's hook certifies the sparse solve.
func TestPaperModelsMatchDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		scs, err := experiments.All(experiments.Options{Seed: seed, Snapshots: 24})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			prob, err := sc.MeanProblem()
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			for _, parametric := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed%d/parametric=%v", sc.Name, seed, parametric)
				m, rVar, err := core.PlacementModel(prob, parametric)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				pair := lp.NewEnginePair(t, m)
				last, err := pair.Solve(name + " cold")
				if err != nil {
					t.Fatalf("%s: cold solve: %v", name, err)
				}
				differ := 0 // degenerate ties may end on another vertex of the optimal face
				for j, x := range last.Values {
					if math.Abs(x-pair.Dense.Values[j]) > 1e-6 {
						differ++
					}
				}
				t.Logf("%s: %d rows × %d columns, pivots sparse %d dense %d, %d values differ", name,
					m.NumConstraints(), m.NumVariables(), last.Iterations, pair.Dense.Iterations, differ)
				var changes []lp.BoundChange
				for k := 0; k < 24; k++ {
					step := fmt.Sprintf("%s warm %d", name, k)
					if parametric {
						changes = changes[:0]
						tm := sc.Series[k%len(sc.Series)]
						for ci, c := range prob.Classes {
							r := tm.At(int(c.Path[0]), int(c.Path[len(c.Path)-1]))
							changes = append(changes, lp.BoundChange{Var: rVar[ci], Lo: r, Hi: r})
						}
					} else {
						changes = capWalk(m, &last, k, changes)
					}
					for _, ch := range changes {
						pair.SetBounds(ch.Var, ch.Lo, ch.Hi)
					}
					sol, err := pair.ReSolve(step)
					if err == nil {
						last = sol
					} else if !errors.Is(err, lp.ErrInfeasible) {
						t.Fatalf("%s: %v", step, err)
					}
				}
			}
		}
	}
}

// looseCap stands for "no cap" in capWalk: a variable resting on its upper
// bound cannot rest at +Inf (see Solver.RestingAtUpper), and 1 000
// instances at one switch is beyond any scenario.
const looseCap = 1e3

// capWalk picks step k's repair-style bound changes on the σ-eliminated
// model: the previous step's cap (the last of prev) is moved out of the
// way, and the k-th (cyclically) integer variable the last optimum leaves
// fractional is capped at its floor, as round-and-repair caps an offender
// one instance below its rounded count.
func capWalk(m *lp.Model, last *lp.Solution, k int, prev []lp.BoundChange) []lp.BoundChange {
	var changes []lp.BoundChange
	if len(prev) > 0 {
		changes = append(changes, lp.BoundChange{Var: prev[len(prev)-1].Var, Lo: 0, Hi: looseCap})
	}
	var fractional []lp.VarID
	for j := 0; j < m.NumVariables(); j++ {
		v := lp.VarID(j)
		if x := last.Value(v); m.IsInteger(v) && x-math.Floor(x) > 1e-6 {
			fractional = append(fractional, v)
		}
	}
	if len(fractional) == 0 {
		return changes
	}
	v := fractional[(k*7)%len(fractional)]
	return append(changes, lp.BoundChange{Var: v, Lo: 0, Hi: math.Floor(last.Value(v))})
}

// as3679Parametric builds the largest model the engines solve: the
// parametric placement LP of AS-3679's mean problem (scenario seed 1).
func as3679Parametric(t *testing.T) *lp.Model {
	t.Helper()
	sc, err := experiments.AS3679(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.PlacementModel(prob, true)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestColdSolveAllocatesUnder4MB pins what the dense tableau spent 84 MB
// on: a cold Solve of the AS-3679 parametric model — column store,
// factorization arenas and work vectors included — allocates under 4 MB.
func TestColdSolveAllocatesUnder4MB(t *testing.T) {
	m := as3679Parametric(t)
	defer lp.SuspendCertificates()()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := lp.NewSolver(m).Solve()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold solve: %d pivots, %.2f MB in %d objects",
		sol.Iterations, float64(bytes)/(1<<20), after.Mallocs-before.Mallocs)
	if bytes >= 4<<20 {
		t.Fatalf("cold solve allocated %d bytes, want < 4 MB", bytes)
	}
}

// TestWarmReSolveAllocatesOnlyValues: after one SetUpper a warm ReSolve of
// the same model — dual pivots, their FTRANs and BTRANs, the eta file, a
// refactor when one comes due — allocates nothing but the Values it
// returns: at most 2 objects, averaged over a walk of caps.
func TestWarmReSolveAllocatesOnlyValues(t *testing.T) {
	m := as3679Parametric(t)
	defer lp.SuspendCertificates()()
	s := lp.NewSolver(m)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var open []lp.VarID
	for j := 0; j < m.NumVariables(); j++ {
		if v := lp.VarID(j); m.IsInteger(v) && sol.Value(v) > 1e-6 {
			open = append(open, v)
		}
	}
	// Cap an open instance variable a little below its value, re-solve, move
	// the cap out of the way, re-solve: every ReSolve is warm and most must
	// pivot. (The cap moves to a loose finite bound, not to +Inf: a variable
	// resting on its upper bound cannot rest at infinity, see RestingAtUpper.)
	k, pivots, warm := 0, 0, 0
	step := func() {
		v := open[k%len(open)]
		k++
		for _, hi := range []float64{0.9 * sol.Value(v), 1e3} {
			if err := s.SetUpper(v, hi); err != nil {
				t.Fatal(err)
			}
			r, err := s.ReSolve()
			if err != nil {
				t.Fatal(err)
			}
			pivots += r.Iterations
			if r.WarmStarted {
				warm++
			}
		}
	}
	step() // grow the eta and work arenas once
	allocs := testing.AllocsPerRun(100, step)
	t.Logf("%d ReSolves, %d warm, %d pivots, %.1f objects per cap-and-move pair", 2*k, warm, pivots, allocs)
	if warm != 2*k || pivots < k {
		t.Fatalf("the walk is not exercising the warm path: %d of %d warm, %d pivots", warm, 2*k, pivots)
	}
	if allocs > 2*2 {
		t.Fatalf("%.1f objects per two warm ReSolves, want at most 2 each", allocs)
	}
}
