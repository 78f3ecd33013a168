package lp

import (
	"fmt"
	"math"
	"sort"
)

// MILPOptions tunes branch-and-bound.
type MILPOptions struct {
	// Exclusions lists variable pairs of which at most one may be
	// positive in the final solution (SOS1-style complementarity, used
	// for anti-affinity co-location: q_a and q_b on one host cannot both
	// be nonzero). An integral candidate violating a pair is not accepted
	// as incumbent; the search branches into the two subproblems fixing
	// one side of the pair to zero.
	Exclusions [][2]VarID
}

// Branch-and-bound explores at most maxNodes nodes, proves optimality
// (within tolerance) rather than stopping at a gap, and counts a value
// within intTol of an integer as integral. A search that reaches maxNodes
// with a node still open below the incumbent has proved nothing: it
// returns the incumbent with ErrIterLimit. So has one that skipped a node
// whose LP hit its pivot limit or a basis that does not factorize, if that
// node's bound was below the incumbent.
const (
	maxNodes = 10000
	intTol   = 1e-6
)

// resolveNode re-solves one branch-and-bound node; tests replace it to
// make a node's LP hit its pivot limit or a singular basis.
var resolveNode = (*Solver).ReSolve

// violatedExclusion returns the first exclusion pair with both variables
// meaningfully positive in sol, in declaration order (deterministic).
func violatedExclusion(opts MILPOptions, sol *Solution) (a, b VarID, violated bool) {
	for _, ex := range opts.Exclusions {
		if sol.Values[ex[0]] > intTol && sol.Values[ex[1]] > intTol {
			return ex[0], ex[1], true
		}
	}
	return 0, 0, false
}

// SolveMILP solves the model respecting integrality flags by LP-based
// branch and bound (best-first on the parent bound, branching on the most
// fractional variable). For models with no integer variables it is
// equivalent to one Solver.Solve. When the node limit stops the search
// before the incumbent is proved optimal, the error wraps ErrIterLimit and
// the solution, status StatusIterLimit, carries the incumbent if any. A
// node whose LP hits its pivot limit, or a basis that does not factorize,
// is skipped and counted as open at its parent's bound, so it costs the
// proof only if that bound could have beaten the incumbent.
func SolveMILP(m *Model, opts MILPOptions) (Solution, error) {
	hasInt := false
	for _, v := range m.vars {
		if v.integer {
			hasInt = true
			break
		}
	}
	for _, ex := range opts.Exclusions {
		for _, v := range ex {
			if int(v) < 0 || int(v) >= len(m.vars) {
				return Solution{}, fmt.Errorf("lp: exclusion references unknown variable %d", v)
			}
		}
	}
	s := NewSolver(m)
	root, err := s.Solve()
	if err != nil || (!hasInt && len(opts.Exclusions) == 0) {
		return root, err
	}

	type bound struct {
		v      VarID
		lo, hi float64 // extra bound tightening relative to the model
	}
	type node struct {
		bounds []bound
		lb     float64 // parent LP bound
	}
	// Node queue ordered by lower bound (best-first).
	queue := []node{{lb: root.Objective}}
	pop := func() node {
		sort.Slice(queue, func(i, j int) bool { return queue[i].lb < queue[j].lb })
		n := queue[0]
		queue = queue[1:]
		return n
	}

	best := Solution{Status: StatusInfeasible, Objective: math.Inf(1)}
	totalIters, nodes := 0, 0

	// Root bounds, restored between nodes so each node applies its
	// tightenings against the original model. Bound changes go through the
	// shared Solver, which warm-starts every node from the previous
	// optimal basis via the dual simplex.
	rootLo := make([]float64, len(m.vars))
	rootHi := make([]float64, len(m.vars))
	for j, v := range m.vars {
		rootLo[j], rootHi[j] = v.lo, v.hi
	}
	touched := make(map[VarID]bool)
	solveWith := func(bounds []bound) (Solution, error) {
		for v := range touched {
			if err := s.SetBounds(v, rootLo[v], rootHi[v]); err != nil {
				return Solution{}, err
			}
			delete(touched, v)
		}
		for _, b := range bounds {
			lo, hi := m.vars[b.v].lo, m.vars[b.v].hi
			if b.lo > lo {
				lo = b.lo
			}
			if b.hi < hi {
				hi = b.hi
			}
			if lo > hi {
				// Crossed bounds: the subproblem is trivially infeasible
				// and SetBounds would reject the pair.
				return Solution{Status: StatusInfeasible}, fmt.Errorf("%w: %s", ErrInfeasible, m.name)
			}
			if err := s.SetBounds(b.v, lo, hi); err != nil {
				return Solution{}, err
			}
			touched[b.v] = true
		}
		return resolveNode(s)
	}
	// skipped holds the bounds of the nodes whose LP hit its pivot limit
	// or a singular basis.
	var skipped []float64

	for len(queue) > 0 && nodes < maxNodes {
		nd := pop()
		if nd.lb >= best.Objective-1e-9 {
			continue // pruned by bound
		}
		sol, err := solveWith(nd.bounds)
		nodes++
		totalIters += sol.Iterations
		if err != nil {
			// Infeasible subproblem: prune. A node whose LP ran out of
			// pivots or met a singular basis is skipped, its bound kept.
			// Other errors abort.
			switch sol.Status {
			case StatusInfeasible:
				continue
			case StatusIterLimit, StatusSingular:
				skipped = append(skipped, nd.lb)
				continue
			}
			return sol, fmt.Errorf("lp: branch-and-bound node failed: %w", err)
		}
		if sol.Objective >= best.Objective-1e-9 {
			continue
		}
		// Find the most fractional integer variable.
		branchVar := VarID(-1)
		worst := intTol
		for j, v := range m.vars {
			if !v.integer {
				continue
			}
			x := sol.Values[j]
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branchVar = VarID(j)
			}
		}
		if branchVar < 0 {
			// Integral: candidate incumbent — unless it co-locates an
			// excluded pair, in which case branch on the pair instead
			// (zero one side or the other; every feasible completion lies
			// in one of the two subproblems).
			if a, b, violated := violatedExclusion(opts, &sol); violated {
				left := append(append([]bound(nil), nd.bounds...), bound{v: a, lo: math.Inf(-1), hi: 0})
				right := append(append([]bound(nil), nd.bounds...), bound{v: b, lo: math.Inf(-1), hi: 0})
				queue = append(queue, node{bounds: left, lb: sol.Objective}, node{bounds: right, lb: sol.Objective})
				continue
			}
			if sol.Objective < best.Objective {
				best = sol
				best.Nodes = nodes
			}
			continue
		}
		x := sol.Values[branchVar]
		floor := math.Floor(x)
		down := append(append([]bound(nil), nd.bounds...), bound{v: branchVar, lo: math.Inf(-1), hi: floor})
		up := append(append([]bound(nil), nd.bounds...), bound{v: branchVar, lo: floor + 1, hi: math.Inf(1)})
		queue = append(queue, node{bounds: down, lb: sol.Objective}, node{bounds: up, lb: sol.Objective})
	}
	// Leave the model at its root bounds for the caller.
	for v := range touched {
		if err := s.SetBounds(v, rootLo[v], rootHi[v]); err != nil {
			return best, err
		}
	}
	best.Iterations = totalIters
	best.Nodes = nodes
	// Snap near-integral values exactly.
	if best.Values != nil {
		for j, v := range m.vars {
			if v.integer {
				best.Values[j] = math.Round(best.Values[j])
			}
		}
	}
	for _, nd := range queue {
		if nd.lb < best.Objective-1e-9 {
			best.Status = StatusIterLimit
			return best, fmt.Errorf("%w: %d branch-and-bound nodes, optimality not proved", ErrIterLimit, nodes)
		}
	}
	for _, lb := range skipped {
		if lb < best.Objective-1e-9 {
			best.Status = StatusIterLimit
			return best, fmt.Errorf("%w: %d of %d branch-and-bound nodes hit the pivot limit, optimality not proved",
				ErrIterLimit, len(skipped), nodes)
		}
	}
	if best.Status != StatusOptimal {
		return best, fmt.Errorf("%w: %s (no integral solution)", ErrInfeasible, m.name)
	}
	return best, nil
}
