package core

import (
	"fmt"

	"github.com/apple-nfv/apple/internal/lp"
)

// solveExplicitSigma solves prob over the paper's literal formulation —
// explicit cumulative variables σ instead of prefix sums of d — through
// the same engine path (relaxation, round-and-repair) as buildModel's
// σ-eliminated form. It is the reference the production model is checked
// against.
func solveExplicitSigma(prob *Problem) (*Placement, error) {
	md, err := buildExplicitSigmaModel(prob)
	if err != nil {
		return nil, err
	}
	pl, _, err := NewEngine(EngineOptions{}).solveModel(md)
	return pl, err
}

// buildExplicitSigmaModel is buildModel with Eqs. (2)–(4) written out per
// class in place of the coverage and order rows; every other step is the
// shared one.
func buildExplicitSigmaModel(prob *Problem) (*model, error) {
	md, err := newModel("apple-placement-sigma", prob)
	if err != nil {
		return nil, err
	}
	for ci := range prob.Classes {
		if err := md.addFlowVars(ci); err != nil {
			return nil, err
		}
	}
	if err := md.addInstanceVars(nil); err != nil {
		return nil, err
	}
	for ci := range prob.Classes {
		if err := addSigmaConstraints(md, ci, prob.Classes[ci]); err != nil {
			return nil, err
		}
	}
	if err := md.addCapacityRows(func(c Class) float64 { return c.RateMbps }); err != nil {
		return nil, err
	}
	if err := md.addResourceRows(); err != nil {
		return nil, err
	}
	return md, nil
}

// addSigmaConstraints models Eqs. (2)-(4) with explicit cumulative
// variables, exactly as the paper writes them: σ_{h,j}^i = σ_{h,j}^{i-1} +
// d_{h,j}^i (Eq. 2), σ_{h,j-1}^i ≥ σ_{h,j}^i (Eq. 3), σ at the last hop
// equals 1 (Eq. 4).
func addSigmaConstraints(md *model, ci int, c Class) error {
	m, hops := md.m, md.hops[ci]
	nPos := len(c.Chain)
	sigma := make([][]lp.VarID, len(hops))
	for hi := range hops {
		sigma[hi] = make([]lp.VarID, nPos)
		for j := 0; j < nPos; j++ {
			v, err := m.AddVariable(fmt.Sprintf("sigma[%d][%d][%d]", c.ID, hops[hi], j), 0, 1, 0)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			sigma[hi][j] = v
		}
	}
	for j := 0; j < nPos; j++ {
		for hi, i := range hops {
			// Eq. (2): σ^i = σ^{i-1} + d^i.
			terms := []lp.Term{
				{Var: sigma[hi][j], Coef: 1},
				{Var: md.d(ci, i, j), Coef: -1},
			}
			if hi > 0 {
				terms = append(terms, lp.Term{Var: sigma[hi-1][j], Coef: -1})
			}
			name := fmt.Sprintf("cum[%d][%d][%d]", c.ID, i, j)
			if err := m.AddConstraint(name, lp.EQ, 0, terms...); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			// Eq. (3): σ_{j-1} ≥ σ_j.
			if j > 0 {
				name := fmt.Sprintf("order[%d][%d][%d]", c.ID, i, j)
				if err := m.AddConstraint(name, lp.GE, 0,
					lp.Term{Var: sigma[hi][j-1], Coef: 1},
					lp.Term{Var: sigma[hi][j], Coef: -1}); err != nil {
					return fmt.Errorf("core: %w", err)
				}
			}
		}
		// Eq. (4): fully processed by the last hop.
		name := fmt.Sprintf("full[%d][%d]", c.ID, j)
		if err := m.AddConstraint(name, lp.EQ, 1,
			lp.Term{Var: sigma[len(hops)-1][j], Coef: 1}); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
