package experiments

import "testing"

// TestRunReopt replays the continuous re-optimization loop on the two
// WAN scenarios and asserts, on each, the three count-based gates the
// loop is judged by: every audited commit is violation-free, warm
// re-solves pivot strictly less than cold solves of the same inputs, and
// steady-state rule churn stays below a full reinstall per pass.
func TestRunReopt(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(Options) (*Scenario, error)
		series    int
		snapshots int
	}{
		{"Internet2", Internet2, 12, 4},
		{"GEANT", GEANT, 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.build(Options{Seed: 1, Snapshots: tc.series})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunReopt(sc, ReoptConfig{Snapshots: tc.snapshots, Stride: 2, Verify: true, Reap: true, ColdBaseline: true})
			if err != nil {
				t.Fatalf("RunReopt: %v", err)
			}
			if res.Violations != 0 {
				t.Errorf("violations = %d, want 0", res.Violations)
			}
			if len(res.Passes) != tc.snapshots {
				t.Fatalf("passes = %d, want %d", len(res.Passes), tc.snapshots)
			}
			first := res.Passes[0]
			if first.Warm {
				t.Error("first pass must solve cold")
			}
			if first.Added == 0 || first.RulesTouched == 0 {
				t.Errorf("first pass should install the class set: %+v", first)
			}
			for i, p := range res.Passes {
				if p.ColdPivots == 0 {
					t.Errorf("pass %d has no cold baseline", i)
				}
			}
			for i, p := range res.Passes[1:] {
				if !p.Warm {
					t.Errorf("pass %d did not carry the basis", i+1)
				}
				if p.Added != 0 {
					t.Errorf("pass %d re-added %d classes", i+1, p.Added)
				}
				if p.RateDrift <= 0 {
					t.Errorf("pass %d reports no rate drift on a diurnal series", i+1)
				}
			}
			if w, c := res.WarmPivots(), res.ColdPivots(); w >= c {
				t.Errorf("warm pivots %d not below cold %d", w, c)
			}
			if rt := res.RulesTouched(); rt >= first.RulesTouched*len(res.Passes[1:]) {
				t.Errorf("steady-state churn %d not below full reinstall %d",
					rt, first.RulesTouched*len(res.Passes[1:]))
			}
		})
	}
}

func TestRunReoptValidation(t *testing.T) {
	if _, err := RunReopt(nil, ReoptConfig{}); err == nil {
		t.Error("nil scenario should fail")
	}
}
