package core

import (
	"math"
	"testing"

	"github.com/apple-nfv/apple/internal/policy"
)

func incrementalProblem(t *testing.T) *Problem {
	t.Helper()
	g := lineTopo(t, 4)
	return &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 0, Path: path(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
			{ID: 1, Path: path(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 250},
			{ID: 2, Path: path(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 150},
		},
		Avail: bigHosts(4),
	}
}

func ratesOf(p *Problem) map[ClassID]float64 {
	out := make(map[ClassID]float64, len(p.Classes))
	for _, c := range p.Classes {
		out[c.ID] = c.RateMbps
	}
	return out
}

func scaledProblem(p *Problem, f float64) *Problem {
	out := *p
	out.Classes = append([]Class(nil), p.Classes...)
	for i := range out.Classes {
		out.Classes[i].RateMbps *= f
	}
	return &out
}

// TestIncrementalMatchesCold: the first Place (necessarily cold) over the
// base rates must reproduce the batch engine's placement exactly — same
// model, same bias, same repair loop.
func TestIncrementalMatchesCold(t *testing.T) {
	prob := incrementalProblem(t)
	cold, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, st, err := eng.Place(ratesOf(prob))
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm {
		t.Error("first Place must be cold")
	}
	if pl.Objective != cold.Objective {
		t.Errorf("objective %d != cold %d", pl.Objective, cold.Objective)
	}
	if err := pl.Verify(prob); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if pl.Method != "lp-parametric" {
		t.Errorf("method %q", pl.Method)
	}
}

// TestIncrementalWarmAfterRateChange: a second Place with shifted rates
// warm-starts, stays feasible, and matches a from-scratch solve of the
// shifted problem on the objective.
func TestIncrementalWarmAfterRateChange(t *testing.T) {
	prob := incrementalProblem(t)
	eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Place(ratesOf(prob)); err != nil {
		t.Fatal(err)
	}
	shifted := scaledProblem(prob, 1.3)
	pl, st, err := eng.Place(ratesOf(shifted))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Warm {
		t.Error("second Place should carry the previous basis")
	}
	if err := pl.Verify(shifted); err != nil {
		t.Errorf("Verify: %v", err)
	}
	cold, err := NewEngine(EngineOptions{}).Solve(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Objective != cold.Objective {
		t.Errorf("warm objective %d != cold %d", pl.Objective, cold.Objective)
	}
	if st.Pivots > cold.Iterations {
		t.Errorf("warm pivots %d exceed cold %d", st.Pivots, cold.Iterations)
	}
}

// TestIncrementalInactiveClasses: classes with zero or missing rates are
// dropped from the snapshot's placement.
func TestIncrementalInactiveClasses(t *testing.T) {
	prob := incrementalProblem(t)
	eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rates := ratesOf(prob)
	delete(rates, 1)
	rates[2] = 0
	pl, _, err := eng.Place(rates)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pl.Dist[0]; !ok {
		t.Error("active class 0 missing from Dist")
	}
	for _, id := range []ClassID{1, 2} {
		if _, ok := pl.Dist[id]; ok {
			t.Errorf("inactive class %d present in Dist", id)
		}
	}
}

// TestIncrementalInvalidRates: negative, NaN and Inf rates are rejected.
func TestIncrementalInvalidRates(t *testing.T) {
	prob := incrementalProblem(t)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rates := ratesOf(prob)
		rates[0] = bad
		if _, _, err := eng.Place(rates); err == nil {
			t.Errorf("rate %v accepted", bad)
		}
	}
}

// TestIncrementalRepeatedSnapshotsStayFeasible drives a short diurnal-ish
// rate sweep and checks every warm placement verifies against its own
// snapshot problem — and that every snapshot's LP solve went through
// TestMain's optimality-certificate observer.
func TestIncrementalRepeatedSnapshotsStayFeasible(t *testing.T) {
	prob := incrementalProblem(t)
	eng, err := NewIncrementalEngine(prob, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for i, f := range []float64{1, 1.4, 0.6, 1.1, 0.9, 1.8} {
		snap := scaledProblem(prob, f)
		before := Certified
		pl, st, err := eng.Place(ratesOf(snap))
		if err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if Certified == before {
			t.Fatalf("pass %d: no LP solve was certified", i)
		}
		if err := pl.Verify(snap); err != nil {
			t.Fatalf("pass %d Verify: %v", i, err)
		}
		if st.Warm {
			warm++
		}
	}
	if warm != 5 {
		t.Errorf("warm passes = %d, want 5 of 6", warm)
	}
}
