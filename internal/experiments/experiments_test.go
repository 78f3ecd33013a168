package experiments

import (
	"testing"

	"github.com/apple-nfv/apple/internal/traffic"
)

// smallOpts keeps scenario construction cheap for unit tests.
func smallOpts() Options { return Options{Seed: 1, Snapshots: 48, Scale: 0.5} }

func TestScenarioConstruction(t *testing.T) {
	scs, err := All(smallOpts())
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(scs) != 4 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	names := []string{"Internet2", "GEANT", "UNIV1", "AS-3679"}
	for i, sc := range scs {
		if sc.Name != names[i] {
			t.Errorf("scenario %d = %s, want %s", i, sc.Name, names[i])
		}
		if len(sc.Series) == 0 {
			t.Errorf("%s has no snapshots", sc.Name)
		}
		if len(sc.Avail) != sc.Graph.NumNodes() {
			t.Errorf("%s avail covers %d of %d switches", sc.Name, len(sc.Avail), sc.Graph.NumNodes())
		}
	}
	if !scs[2].Multipath {
		t.Error("UNIV1 must be marked multipath")
	}
}

func TestProblemDeterminism(t *testing.T) {
	sc, err := Internet2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sc.MeanProblem()
	if err != nil {
		t.Fatalf("MeanProblem: %v", err)
	}
	p2, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Classes) != len(p2.Classes) {
		t.Fatalf("class counts differ: %d vs %d", len(p1.Classes), len(p2.Classes))
	}
	for i := range p1.Classes {
		if !p1.Classes[i].Chain.Equal(p2.Classes[i].Chain) {
			t.Fatalf("class %d chain differs across identical calls", i)
		}
		if p1.Classes[i].RateMbps != p2.Classes[i].RateMbps {
			t.Fatalf("class %d rate differs", i)
		}
	}
	if _, err := sc.Problem(nil); err == nil {
		t.Fatal("nil matrix should fail")
	}
}

func TestTableVOrdering(t *testing.T) {
	scs, err := All(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TableV(scs, 1)
	if err != nil {
		t.Fatalf("TableV: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Node/link counts match the paper's table exactly.
	want := [][2]int{{12, 15}, {23, 37}, {23, 43}, {79, 147}}
	for i, r := range rows {
		if r.Nodes != want[i][0] || r.Links != want[i][1] {
			t.Errorf("%s: %d nodes/%d links, want %v", r.Topology, r.Nodes, r.Links, want[i])
		}
		if r.SolveTime <= 0 || r.Objective <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Topology, r)
		}
	}
	// The headline shape: the big ISP topology is the slowest.
	slowest := rows[0].SolveTime
	for _, r := range rows[1:] {
		if r.SolveTime > slowest {
			slowest = r.SolveTime
		}
	}
	if rows[3].SolveTime != slowest {
		t.Errorf("AS-3679 (%v) is not the slowest; rows: %+v", rows[3].SolveTime, rows)
	}
	if _, err := TableV(nil, 1); err == nil {
		t.Error("no scenarios should fail")
	}
}

func TestFig10ReductionShape(t *testing.T) {
	i2, err := Internet2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := Figs10And11(i2, 4)
	if err != nil {
		t.Fatalf("Figs10And11: %v", err)
	}
	if len(row.Ratios) != 4 {
		t.Fatalf("ratios = %v", row.Ratios)
	}
	if row.Box.Min < 1.5 {
		t.Errorf("tagging reduction %v is implausibly small", row.Box.Min)
	}
	if _, _, err := Figs10And11(nil, 1); err == nil {
		t.Error("nil scenario should fail")
	}
}

func TestFig10MultipathBeatsSinglePath(t *testing.T) {
	u, err := UNIV1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := Figs10And11(u, 3)
	if err != nil {
		t.Fatalf("Fig10 multipath: %v", err)
	}
	u.Multipath = false
	single, _, err := Figs10And11(u, 3)
	if err != nil {
		t.Fatalf("Fig10 single: %v", err)
	}
	if multi.Box.Median <= single.Box.Median {
		t.Errorf("multipath median %v should beat single-path %v (the Fig 10 UNIV1 effect)",
			multi.Box.Median, single.Box.Median)
	}
}

func TestFig11APPLEBeatsIngress(t *testing.T) {
	i2, err := Internet2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, row, err := Figs10And11(i2, 3)
	if err != nil {
		t.Fatalf("Figs10And11: %v", err)
	}
	if row.Reduction() <= 1.5 {
		t.Errorf("reduction = %v; APPLE should clearly beat ingress on Internet2", row.Reduction())
	}
}

func TestFig12FailoverReducesLoss(t *testing.T) {
	sc, err := Internet2(Options{Seed: 3, Snapshots: 60, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Inflate a few snapshots to force overloads.
	for i := 10; i < 25; i++ {
		scaled, err := sc.Series[i].Scale(3)
		if err != nil {
			t.Fatal(err)
		}
		sc.Series[i] = scaled
	}
	without, err := Fig12(sc, 60, false)
	if err != nil {
		t.Fatalf("Fig12 without: %v", err)
	}
	with, err := Fig12(sc, 60, true)
	if err != nil {
		t.Fatalf("Fig12 with: %v", err)
	}
	t.Logf("loss off %.4f on %.4f, peak extra cores %d", without.MeanLoss, with.MeanLoss, with.PeakExtraCores)
	if without.MeanLoss <= 0 {
		t.Fatalf("baseline saw no loss (%v); the surge did not bite", without.MeanLoss)
	}
	if with.MeanLoss >= without.MeanLoss {
		t.Fatalf("failover loss %v did not improve on %v", with.MeanLoss, without.MeanLoss)
	}
	if with.Loss.Len() != 60 || without.Loss.Len() != 60 {
		t.Fatal("series length wrong")
	}
	// The paper reports <17 additional cores under its (milder) replay
	// dynamics; this test applies a deliberate 3x shock to 15 snapshots,
	// so the bound here only guards against runaway spawning.
	if with.PeakExtraCores >= 150 {
		t.Errorf("failover consumed %d extra cores; runaway spawning", with.PeakExtraCores)
	}
	if _, err := Fig12(nil, 1, true); err == nil {
		t.Error("nil scenario should fail")
	}
}

func TestClassRates(t *testing.T) {
	sc, err := Internet2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	tm := sc.Series[0]
	rates := classRates(prob, tm)
	if len(rates) != len(prob.Classes) {
		t.Fatalf("rates cover %d of %d classes", len(rates), len(prob.Classes))
	}
	for _, c := range prob.Classes {
		want := tm.At(int(c.Path[0]), int(c.Path[len(c.Path)-1]))
		if rates[c.ID] != want {
			t.Fatalf("class %d rate %v, want %v", c.ID, rates[c.ID], want)
		}
	}
	var empty *traffic.Matrix
	_ = empty
}
