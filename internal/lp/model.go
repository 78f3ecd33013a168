// Package lp is a self-contained linear-programming toolkit: a modeling
// layer, a bounded-variable revised simplex over a sparse column store (LU
// basis factorization with an eta file; primal two-phase for cold solves,
// dual for warm re-solves), an optimality-certificate checker, and a
// branch-and-bound wrapper for mixed-integer programs. It stands in for
// CPLEX in the APPLE Optimization Engine (§IV-D): the engine builds the
// placement ILP here, solves the LP relaxation, and rounds — exactly the
// solution strategy the paper describes.
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // left-hand side ≤ rhs
	GE                  // left-hand side ≥ rhs
	EQ                  // left-hand side = rhs
)

// String returns the sense's symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// VarID identifies a variable within a Model.
type VarID int

// Term is one coefficient–variable product in a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// variable is the model-side record of a decision variable.
type variable struct {
	name    string
	lo, hi  float64
	obj     float64
	integer bool
}

// constraint is a linear constraint in sparse form.
type constraint struct {
	name  string
	sense Sense
	rhs   float64
	terms []Term
}

// Model is a linear (or mixed-integer) minimization program under
// construction. The zero value is unusable; construct with NewModel.
type Model struct {
	name string
	vars []variable
	cons []constraint
	slot []int32 // AddConstraint scratch, all zero between calls
}

// NewModel returns an empty minimization model.
func NewModel(name string) *Model {
	return &Model{name: name}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// NumVariables returns the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVariable adds a continuous variable with bounds [lo, hi] and objective
// coefficient obj, returning its ID. Use math.Inf(1) for an unbounded hi.
// Negative lower bounds are supported by internal shifting.
func (m *Model) AddVariable(name string, lo, hi, obj float64) (VarID, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(obj) {
		return 0, fmt.Errorf("lp: NaN in variable %q", name)
	}
	if math.IsInf(lo, 0) {
		return 0, fmt.Errorf("lp: variable %q: free (unbounded-below) variables are not supported", name)
	}
	if lo > hi {
		return 0, fmt.Errorf("lp: variable %q: lower bound %v above upper bound %v", name, lo, hi)
	}
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return VarID(len(m.vars) - 1), nil
}

// SetInteger marks a variable as integral for SolveMILP. Solve (the LP
// relaxation) ignores the flag.
func (m *Model) SetInteger(v VarID) error {
	if !m.validVar(v) {
		return fmt.Errorf("lp: unknown variable %d", v)
	}
	m.vars[v].integer = true
	return nil
}

// Bounds returns the current [lo, hi] bounds of v.
func (m *Model) Bounds(v VarID) (lo, hi float64, err error) {
	if !m.validVar(v) {
		return 0, 0, fmt.Errorf("lp: unknown variable %d", v)
	}
	return m.vars[v].lo, m.vars[v].hi, nil
}

// SetBounds replaces the bounds of v. The same validation as AddVariable
// applies. Callers holding a live Solver must mutate bounds through
// Solver.SetBounds instead so the solver's working state stays in sync.
func (m *Model) SetBounds(v VarID, lo, hi float64) error {
	if !m.validVar(v) {
		return fmt.Errorf("lp: unknown variable %d", v)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("lp: NaN bound for variable %q", m.vars[v].name)
	}
	if math.IsInf(lo, 0) {
		return fmt.Errorf("lp: variable %q: free (unbounded-below) variables are not supported", m.vars[v].name)
	}
	if lo > hi {
		return fmt.Errorf("lp: variable %q: lower bound %v above upper bound %v", m.vars[v].name, lo, hi)
	}
	m.vars[v].lo = lo
	m.vars[v].hi = hi
	return nil
}

// VariableName returns the name given at AddVariable.
func (m *Model) VariableName(v VarID) string {
	if !m.validVar(v) {
		return fmt.Sprintf("var(%d)", v)
	}
	return m.vars[v].name
}

// ConstraintName returns the name given to the i-th AddConstraint call.
func (m *Model) ConstraintName(i int) string {
	if i < 0 || i >= len(m.cons) {
		return fmt.Sprintf("con(%d)", i)
	}
	return m.cons[i].name
}

func (m *Model) validVar(v VarID) bool { return v >= 0 && int(v) < len(m.vars) }

// AddConstraint adds Σ terms (sense) rhs. Terms referencing the same
// variable are accumulated. Zero-coefficient terms are dropped.
func (m *Model) AddConstraint(name string, sense Sense, rhs float64, terms ...Term) error {
	if sense != LE && sense != GE && sense != EQ {
		return fmt.Errorf("lp: constraint %q: bad sense %v", name, sense)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q: bad rhs %v", name, rhs)
	}
	for _, t := range terms {
		if !m.validVar(t.Var) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("lp: constraint %q: bad coefficient %v", name, t.Coef)
		}
	}
	// Merge duplicate variables in place, in first-appearance order: while
	// the row is being built slot[v] is v's position in compact plus one.
	if len(m.slot) < len(m.vars) {
		m.slot = append(m.slot, make([]int32, len(m.vars)-len(m.slot))...)
	}
	compact := make([]Term, 0, len(terms))
	for _, t := range terms {
		if k := m.slot[t.Var]; k > 0 {
			compact[k-1].Coef += t.Coef
			continue
		}
		compact = append(compact, t)
		m.slot[t.Var] = int32(len(compact))
	}
	kept := compact[:0]
	for _, t := range compact {
		m.slot[t.Var] = 0
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	m.cons = append(m.cons, constraint{name: name, sense: sense, rhs: rhs, terms: kept})
	return nil
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve, Solver.Solve/ReSolve, or SolveMILP.
// On infeasible/unbounded/iteration-limit outcomes Objective is 0 and
// Values is nil; only the status and iteration counters are meaningful.
type Solution struct {
	Status     Status
	Objective  float64
	Values     []float64 // indexed by VarID
	Iterations int       // total simplex pivots (phase 1 + phase 2 + dual)
	Nodes      int       // branch-and-bound nodes (1 for pure LP)

	// Phase split instrumentation (Table V observability).
	Phase1Iterations int           // phase-1 (feasibility) pivots
	Phase2Iterations int           // phase-2 (optimality) pivots
	DualIterations   int           // dual-simplex pivots of a warm re-solve
	Phase1Time       time.Duration // wall time spent in phase 1
	Phase2Time       time.Duration // wall time spent in phase 2 (and dual)
	// WarmStarted reports whether this solution came from a warm re-solve
	// that reused the previous basis (Solver.ReSolve hit) rather than a
	// cold two-phase solve.
	WarmStarted bool
}

// TotalPivots sums the per-phase pivot counters. It usually equals
// Iterations, but is computed from the phase split, so it stays correct
// for callers (the trace instrumentation) that aggregate solutions whose
// Iterations field was overwritten by a MILP search total.
func (s *Solution) TotalPivots() int {
	return s.Phase1Iterations + s.Phase2Iterations + s.DualIterations
}

// Value returns the solution value of v.
func (s *Solution) Value(v VarID) float64 {
	if v < 0 || int(v) >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[v]
}

// Errors returned by the solvers.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrIterLimit  = errors.New("lp: iteration limit exceeded")
	ErrEmptyModel = errors.New("lp: model has no variables")
)
