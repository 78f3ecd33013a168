package core_test

import (
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/metrics"
)

// TestPaperProblemsCertified solves the four paper scenarios' series-mean
// problems through both engines — Engine (in shares) and the first Place
// of IncrementalEngine (in Mbps) — under TestMain's observer, so
// the cold solve and every round-and-repair re-solve of each is checked
// against an independent optimality certificate. It lives in the external
// test package because experiments imports core.
func TestPaperProblemsCertified(t *testing.T) {
	scs, err := experiments.All(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, sc := range scs {
		prob, err := sc.MeanProblem()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		before, lpBefore := core.Certified, metrics.LP.Snapshot()
		if _, err := core.NewEngine(core.EngineOptions{}).Solve(prob); err != nil {
			t.Fatalf("%s: Solve: %v", sc.Name, err)
		}
		eng, err := core.NewIncrementalEngine(prob, core.IncrementalOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		rates := make(map[core.ClassID]float64, len(prob.Classes))
		for _, c := range prob.Classes {
			rates[c.ID] = c.RateMbps
		}
		if _, _, err := eng.Place(rates); err != nil {
			t.Fatalf("%s: Place: %v", sc.Name, err)
		}
		// Two cold solves plus every repair re-solve that came back optimal
		// (a dead-end cap re-solves infeasible and has nothing to certify).
		d := metrics.LP.Snapshot().Sub(lpBefore)
		got := core.Certified - before
		if got < 2 || got > int(d.Solves+d.WarmHits+d.WarmMisses) {
			t.Errorf("%s: %d certificates for %d solves and %d re-solves",
				sc.Name, got, d.Solves, d.WarmHits+d.WarmMisses)
		}
		repaired += got - 2
	}
	if repaired == 0 {
		t.Error("no scenario needed a repair re-solve: the re-solve certificates were never exercised")
	}
}
