package lp

import (
	"fmt"
	"math"
)

// certTol is the relative tolerance of every certificate test.
const certTol = 1e-6

// CheckCertificate verifies from first principles that values is an
// optimal solution of m's LP relaxation, given the row duals y reported
// by Solver.Duals. It reads nothing but the model, the primal values and
// the duals — no basis, no factorization, nothing the pivoting loop
// computes — so it is an oracle for the solver rather than an echo of it.
//
// With reduced costs d = c − Aᵀy it checks, each to 1e-6 relative:
//
//   - primal feasibility: every row and every variable bound holds;
//   - dual feasibility: y ≤ 0 on ≤ rows and y ≥ 0 on ≥ rows (minimization),
//     and d_j ≥ 0 unless x_j rests at its upper bound, d_j ≤ 0 unless it
//     rests at its lower bound (a fixed variable takes either sign);
//   - complementary slackness: a row with slack has y_i = 0;
//   - a zero duality gap between c·x and y·b + Σ_j d_j·(the bound d_j's
//     sign selects).
//
// Any linear program whose primal and dual feasible points meet with zero
// gap is solved to optimality, whatever path found them.
func CheckCertificate(m *Model, values, duals []float64) error {
	if len(values) != len(m.vars) {
		return fmt.Errorf("lp: certificate: %d values for %d variables", len(values), len(m.vars))
	}
	if len(duals) != len(m.cons) {
		return fmt.Errorf("lp: certificate: %d duals for %d rows", len(duals), len(m.cons))
	}
	// d starts as c and loses Aᵀy row by row; dmag tracks the magnitude of
	// what was summed, the scale its sign tests are relative to.
	d := make([]float64, len(m.vars))
	dmag := make([]float64, len(m.vars))
	primal := 0.0
	for j, v := range m.vars {
		x := values[j]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("lp: certificate: %s = %v", v.name, x)
		}
		btol := certTol * (1 + math.Abs(x))
		if x < v.lo-btol || x > v.hi+btol {
			return fmt.Errorf("lp: certificate: %s = %v outside [%v, %v]", v.name, x, v.lo, v.hi)
		}
		d[j] = v.obj
		dmag[j] = math.Abs(v.obj)
		primal += v.obj * x
	}
	dual := 0.0
	for i, con := range m.cons {
		y := duals[i]
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("lp: certificate: dual of row %d (%s) = %v", i, con.name, y)
		}
		act, mag := 0.0, math.Abs(con.rhs)
		for _, t := range con.terms {
			act += t.Coef * values[t.Var]
			mag += math.Abs(t.Coef * values[t.Var])
			d[t.Var] -= y * t.Coef
			dmag[t.Var] += math.Abs(y * t.Coef)
		}
		tol := certTol * (1 + mag)
		slack := con.rhs - act // ≥ 0 on ≤ rows, ≤ 0 on ≥ rows, 0 on = rows
		switch con.sense {
		case LE:
			if slack < -tol {
				return fmt.Errorf("lp: certificate: row %d (%s): %v > rhs %v", i, con.name, act, con.rhs)
			}
			if y > certTol*(1+math.Abs(y)) {
				return fmt.Errorf("lp: certificate: row %d (%s): dual %v > 0 on a <= row", i, con.name, y)
			}
		case GE:
			if slack > tol {
				return fmt.Errorf("lp: certificate: row %d (%s): %v < rhs %v", i, con.name, act, con.rhs)
			}
			if y < -certTol*(1+math.Abs(y)) {
				return fmt.Errorf("lp: certificate: row %d (%s): dual %v < 0 on a >= row", i, con.name, y)
			}
		case EQ:
			if math.Abs(slack) > tol {
				return fmt.Errorf("lp: certificate: row %d (%s): %v != rhs %v", i, con.name, act, con.rhs)
			}
		}
		if math.Abs(slack) > tol && math.Abs(y*slack) > certTol*(1+mag*math.Abs(y)) {
			return fmt.Errorf("lp: certificate: row %d (%s): slack %v with dual %v", i, con.name, slack, y)
		}
		dual += y * con.rhs
	}
	for j, v := range m.vars {
		x := values[j]
		dtol := certTol * (1 + dmag[j])
		btol := certTol * (1 + math.Abs(x))
		switch {
		case d[j] > dtol:
			// Raising x_j costs: it must rest at its lower bound.
			if x-v.lo > btol {
				return fmt.Errorf("lp: certificate: %s = %v above its lower bound %v with reduced cost %v", v.name, x, v.lo, d[j])
			}
			dual += d[j] * v.lo
		case d[j] < -dtol:
			// Raising x_j pays: it must rest at a finite upper bound.
			if math.IsInf(v.hi, 1) || v.hi-x > btol {
				return fmt.Errorf("lp: certificate: %s = %v below its upper bound %v with reduced cost %v", v.name, x, v.hi, d[j])
			}
			dual += d[j] * v.hi
		default:
			dual += d[j] * x // |d_j| is noise; any x_j in range prices the same
		}
	}
	if gap := math.Abs(primal - dual); gap > certTol*(1+math.Abs(primal)) {
		return fmt.Errorf("lp: certificate: duality gap %v (primal %v, dual %v)", gap, primal, dual)
	}
	return nil
}
