package core

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// geantMeanProblem rebuilds the experiments package's GEANT scenario
// (seed 1) and its series-mean problem, the paper's input to the global
// optimization. experiments imports core, so the recipe is restated here.
func geantMeanProblem(t *testing.T) *Problem {
	t.Helper()
	g := topology.GEANT()
	masses := make([]float64, g.NumNodes())
	for _, n := range g.Nodes() {
		d, err := g.Degree(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		masses[n.ID] = float64(d)
	}
	base, err := traffic.Gravity(masses, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	series, err := traffic.Diurnal(base, traffic.DiurnalOptions{Snapshots: 96, PeakFactor: 2.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := traffic.Mean(series)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := policy.NewGenerator(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	avail := UniformHosts(g, policy.Resources{Cores: 64, MemoryMB: 128 * 1024})
	prob, err := BuildProblem(g, mean, gen, avail, BuildOptions{MinRateMbps: 1, MaxClasses: 60})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// modelNames lists a model's variable names, then its constraint names,
// in creation order — the solver's column and row layout.
func modelNames(m *lp.Model) []string {
	names := make([]string, 0, m.NumVariables()+m.NumConstraints())
	for v := 0; v < m.NumVariables(); v++ {
		names = append(names, m.VariableName(lp.VarID(v)))
	}
	for i := 0; i < m.NumConstraints(); i++ {
		names = append(names, m.ConstraintName(i))
	}
	return names
}

// TestModelLayoutDeterministic pins the model-layout determinism fix in
// CHANGES.md: the placement model's layout, and therefore the simplex's
// pivot sequence, is a function of the problem alone. The model is built
// repeatedly in both units and must name its variables and rows in the same
// order every time; the solve must spend the same pivots every time. A
// range over a Go map anywhere on the building path breaks both.
func TestModelLayoutDeterministic(t *testing.T) {
	prob := geantMeanProblem(t)
	builders := []struct {
		name  string
		build func() (*model, error)
	}{
		{"shares", func() (*model, error) { return buildModel(prob, nil, shareUnit) }},
		{"mbps", func() (*model, error) { return buildModel(prob, nil, mbpsUnit) }},
	}
	for _, b := range builders {
		var want []string
		for i := 0; i < 20; i++ {
			md, err := b.build()
			if err != nil {
				t.Fatalf("%s build %d: %v", b.name, i, err)
			}
			got := modelNames(md.m)
			if i == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s build %d lays the model out differently from build 0", b.name, i)
			}
		}
	}

	want := -1
	for i := 0; i < 5; i++ {
		pl, err := NewEngine(EngineOptions{}).Solve(prob)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if i == 0 {
			want = pl.Iterations
		} else if pl.Iterations != want {
			t.Fatalf("solve %d spent %d pivots, solve 0 spent %d", i, pl.Iterations, want)
		}
	}
}

// TestModelNamesDigest pins every variable and row name of GEANT's mean
// placement model, in both units, to a digest recorded while the model
// still stored a formatted string per column and row: the names it now
// derives on demand from the layout must be those strings, byte for byte.
func TestModelNamesDigest(t *testing.T) {
	prob := geantMeanProblem(t)
	for _, tc := range []struct {
		unit   string
		scale  func(Class) float64
		names  int
		digest string
	}{
		{"shares", shareUnit, 987, "fffc0ffec800d1d8d1ed3a4d63e5c96c96f529937a353052350914fa2c587344"},
		{"mbps", mbpsUnit, 987, "fffc0ffec800d1d8d1ed3a4d63e5c96c96f529937a353052350914fa2c587344"},
	} {
		md, err := buildModel(prob, nil, tc.scale)
		if err != nil {
			t.Fatalf("%s: %v", tc.unit, err)
		}
		names := modelNames(md.m)
		sum := sha256.Sum256([]byte(strings.Join(names, "\n")))
		got := hex.EncodeToString(sum[:])
		t.Logf("%s: %d names, first %q, last %q, sha256 %s", tc.unit, len(names), names[0], names[len(names)-1], got)
		if len(names) != tc.names || got != tc.digest {
			t.Errorf("%s: %d names with sha256 %s; want %d with %s", tc.unit, len(names), got, tc.names, tc.digest)
		}
	}
}
