package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/lp"
)

// TestLinkedModelSolves is ROADMAP item 22's former stall: Internet2's
// 24-snapshot mean problem at scenario seed 1, under its tenant
// hierarchy, in Engine's unit (shares), with one linking row
// x[h][i][j] − q[v][n] ≤ 0 per flow variable appended after the model's
// rows — the disaggregated facility-location rows of item 20. Dantzig
// pricing cycled on its degenerate vertices until a 20 000-pivot limit and
// then ended in ErrIterLimit; switching to Bland's rule after a run of
// degenerate pivots (lp's blandRun) solves it to a certified optimum.
func TestLinkedModelSolves(t *testing.T) {
	m, rows, linked := linkedModel(t, experiments.Internet2, 1)
	s := lp.NewSolver(m)
	sol, err := s.Solve()
	t.Logf("%d rows + %d linking rows: status %v after %d pivots (dual %d, phase 2 %d): %v",
		rows, linked, sol.Status, sol.Iterations, sol.DualIterations, sol.Phase2Iterations, err)
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("the linked model: status %v, err %v; want optimal", sol.Status, err)
	}
	if err := lp.CheckCertificate(m, sol.Values, s.Duals()); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// TestKnownGapLinkedAS3679Singular is ROADMAP item 22's open case: the
// same linking rows on AS-3679 at scenario seed 3. The dual run ends in
// an infeasibility verdict whose Farkas row proves nothing (its left side
// ranges over [0, ∞) around y·b = 0): the model is feasible, the ratio
// test took a tiny pivot on the way. The solve must never call it
// infeasible; it reports StatusSingular. When item 22's ratio test lands
// this test fails: flip it into TestLinkedModelSolves's assertion.
func TestKnownGapLinkedAS3679Singular(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10 000-pivot solve")
	}
	m, rows, linked := linkedModel(t, experiments.AS3679, 3)
	sol, err := lp.NewSolver(m).Solve()
	t.Logf("%d rows + %d linking rows: status %v after %d pivots (dual %d, phase 2 %d): %v",
		rows, linked, sol.Status, sol.Iterations, sol.DualIterations, sol.Phase2Iterations, err)
	if errors.Is(err, lp.ErrInfeasible) || sol.Status == lp.StatusInfeasible {
		t.Fatalf("a feasible model reported infeasible: %v", err)
	}
	if sol.Status != lp.StatusSingular || !errors.Is(err, lp.ErrSingular) || !strings.Contains(err.Error(), "Farkas row") {
		t.Fatalf("known gap closed? status %v, err %v; want %v with an unproven Farkas row", sol.Status, err, lp.StatusSingular)
	}
}

// linkedModel builds the placement model of a scenario's 24-snapshot mean
// problem at a scenario seed, under its tenant hierarchy, in shares, with
// one linking row x[h][i][j] − q[v][n] ≤ 0 per flow variable appended
// after the model's own rows, of which it also returns the counts.
func linkedModel(t *testing.T, build func(experiments.Options) (*experiments.Scenario, error), seed int64) (m *lp.Model, rows, linked int) {
	t.Helper()
	sc, err := build(experiments.Options{Seed: seed, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	h, tenants, err := experiments.ScenarioHierarchy(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ApplyHierarchy(prob, h, tenants); err != nil {
		t.Fatal(err)
	}
	m, _, err = core.PlacementModel(prob, false)
	if err != nil {
		t.Fatal(err)
	}
	// The q variable of each (switch, NF) and the class of each ID, to
	// resolve a flow variable x[class][hop][position] by its name.
	qVar := make(map[string]lp.VarID)
	for v := 0; v < m.NumVariables(); v++ {
		if name := m.VariableName(lp.VarID(v)); name[0] == 'q' {
			qVar[name] = lp.VarID(v)
		}
	}
	classes := make(map[core.ClassID]core.Class, len(prob.Classes))
	for _, c := range prob.Classes {
		classes[c.ID] = c
	}
	rows, n := m.NumConstraints(), m.NumVariables()
	for v := 0; v < n; v++ {
		var id core.ClassID
		var i, j int
		name := m.VariableName(lp.VarID(v))
		if _, err := fmt.Sscanf(name, "x[%d][%d][%d]", &id, &i, &j); err != nil {
			continue
		}
		c := classes[id]
		q, ok := qVar[fmt.Sprintf("q[%d][%v]", c.Path[i], c.Chain[j])]
		if !ok {
			t.Fatalf("%s has no instance variable", name)
		}
		m.AddTerm(lp.VarID(v), 1)
		m.AddTerm(q, -1)
		if err := m.EndConstraint("link"+name[1:], lp.LE, 0); err != nil {
			t.Fatal(err)
		}
	}
	linked = m.NumConstraints() - rows
	if linked == 0 {
		t.Fatal("no flow variable linked")
	}
	return m, rows, linked
}
