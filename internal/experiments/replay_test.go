package experiments

import (
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/traffic"
)

// TestRunReopt replays the continuous re-optimization loop on the two
// WAN scenarios and asserts, on each, the three count-based gates the
// loop is judged by: every probed and audited commit goes through, warm
// re-solves pivot strictly less than cold solves of the same inputs, and
// steady-state rule churn stays below a full reinstall per pass.
func TestRunReopt(t *testing.T) {
	// Two snapshots per window: each pass re-plans on a two-hour mean, so
	// consecutive passes are two hours apart on the diurnal ramp.
	const window = 2
	for _, tc := range []struct {
		name    string
		build   func(Options) (*Scenario, error)
		series  int
		windows int
	}{
		{"Internet2", Internet2, 12, 4},
		{"GEANT", GEANT, 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.build(Options{Seed: 1, Snapshots: tc.series})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(sc, ReplayConfig{Snapshots: window * tc.windows, Window: window})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if n := res.Refused(); n != 0 {
				t.Errorf("refused windows = %d, want 0", n)
			}
			if len(res.Windows) != tc.windows {
				t.Fatalf("windows = %d, want %d", len(res.Windows), tc.windows)
			}
			first := res.Windows[0]
			if first.Place.Warm {
				t.Error("first pass must solve cold")
			}
			if first.Report.Added == 0 || first.RulesTouched() == 0 {
				t.Errorf("first pass should install the class set: %+v", first)
			}
			// The cold baseline: a from-scratch Engine solve of each
			// window's problem, the input the warm engine re-solved.
			base, err := sc.MeanProblem()
			if err != nil {
				t.Fatal(err)
			}
			warm, cold, churn := 0, 0, 0
			for i, w := range res.Windows {
				mean, err := traffic.Mean(sc.Series[w.Start : w.Start+window])
				if err != nil {
					t.Fatal(err)
				}
				pl, err := core.NewEngine(core.EngineOptions{}).Solve(probWithRates(base, classRates(base, mean)))
				if err != nil {
					t.Fatalf("window %d cold baseline: %v", i, err)
				}
				if pl.Iterations == 0 {
					t.Errorf("window %d has no cold baseline", i)
				}
				if i == 0 {
					continue
				}
				if !w.Place.Warm {
					t.Errorf("window %d did not carry the basis", i)
				}
				if w.Report.Added != 0 {
					t.Errorf("window %d re-added %d classes", i, w.Report.Added)
				}
				if w.RateDrift <= 0 {
					t.Errorf("window %d reports no rate drift on a diurnal series", i)
				}
				warm += w.Place.Pivots
				cold += pl.Iterations
				churn += w.RulesTouched()
			}
			t.Logf("warm pivots %d, cold %d; steady-state rules touched %d, first install %d",
				warm, cold, churn, first.RulesTouched())
			if warm >= cold {
				t.Errorf("warm pivots %d not below cold %d", warm, cold)
			}
			if full := first.RulesTouched() * (len(res.Windows) - 1); churn >= full {
				t.Errorf("steady-state churn %d not below full reinstall %d", churn, full)
			}
		})
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(nil, ReplayConfig{}); err == nil {
		t.Error("nil scenario should fail")
	}
}

// TestFig12ShapeAllTopologies is EXPERIMENTS.md's Fig 12 shape check on
// every topology it names: on the replay loop, failover loss is below
// no-failover loss on Internet2, GEANT and UNIV1.
func TestFig12ShapeAllTopologies(t *testing.T) {
	for _, build := range []func(Options) (*Scenario, error){Internet2, GEANT, UNIV1} {
		sc, err := build(Options{Seed: 1, Snapshots: 48})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Fig12(sc, 48, false)
		if err != nil {
			t.Fatalf("%s off: %v", sc.Name, err)
		}
		on, err := Fig12(sc, 48, true)
		if err != nil {
			t.Fatalf("%s on: %v", sc.Name, err)
		}
		t.Logf("%s: loss off %.4f on %.4f, avg extra cores %.1f, refused windows %d/%d",
			sc.Name, off.MeanLoss, on.MeanLoss, on.MeanExtraCores, off.Refused(), on.Refused())
		if on.MeanLoss >= off.MeanLoss {
			t.Errorf("%s: failover loss %v not below no-failover loss %v", sc.Name, on.MeanLoss, off.MeanLoss)
		}
	}
}
