package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
)

// TestPlacementOrderInvariant pins that the instance total does not depend
// on the order the problem lists its classes in: on Internet2's and
// GEANT's 24-snapshot mean problems at scenario seeds 1–3, the reversed
// class order and two seeded shuffles place as many instances as the
// built order, both through Engine.Solve and through an IncrementalEngine's
// first Place. Pivot counts and the vertex may change; the total may not.
func TestPlacementOrderInvariant(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		scs, err := experiments.All(experiments.Options{Seed: seed, Snapshots: 24})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			if sc.Name != "Internet2" && sc.Name != "GEANT" {
				continue
			}
			prob, err := sc.MeanProblem()
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			cold, warm := orderTotals(t, prob)
			rng := rand.New(rand.NewSource(seed))
			shuffle := func(cs []core.Class) { rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] }) }
			for _, order := range []struct {
				name  string
				apply func([]core.Class)
			}{{"reversed", slices.Reverse[[]core.Class]}, {"shuffle 1", shuffle}, {"shuffle 2", shuffle}} {
				perm := *prob
				perm.Classes = slices.Clone(prob.Classes)
				order.apply(perm.Classes)
				c, w := orderTotals(t, &perm)
				if c != cold || w != warm {
					t.Errorf("%s seed %d, %s order: Engine.Solve %d, first Place %d; built order %d, %d",
						sc.Name, seed, order.name, c, w, cold, warm)
				}
			}
			t.Logf("%s seed %d: Engine.Solve %d, first Place %d instances in every order", sc.Name, seed, cold, warm)
		}
	}
}

// orderTotals is prob's instance total through Engine.Solve and through
// an IncrementalEngine's first Place at the problem's own rates.
func orderTotals(t *testing.T, prob *core.Problem) (cold, warm int) {
	t.Helper()
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewIncrementalEngine(prob, core.IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rates := make(map[core.ClassID]float64, len(prob.Classes))
	for _, c := range prob.Classes {
		rates[c.ID] = c.RateMbps
	}
	first, _, err := eng.Place(rates)
	if err != nil {
		t.Fatal(err)
	}
	return pl.TotalInstances(), first.TotalInstances()
}
