// Package lp is a self-contained linear-programming toolkit: a modeling
// layer, a bounded-variable revised simplex over a sparse column store (LU
// basis factorization with an eta file; the dual simplex, from the slack
// basis for cold solves and from the last optimal basis for warm
// re-solves, each followed by a primal clean-up), an optimality-certificate
// checker, and a branch-and-bound wrapper for mixed-integer programs. It
// stands in for CPLEX in the APPLE Optimization Engine (§IV-D): the engine
// builds the placement ILP here, solves the LP relaxation, and rounds —
// exactly the solution strategy the paper describes.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	lo, hi  float64
	obj     float64
	integer bool
}

// constraint is a linear constraint; its terms are in Model.rows.
type constraint struct {
	sense Sense
	rhs   float64
}

// Model is a linear (or mixed-integer) minimization program under
// construction. The zero value is unusable; construct with NewModel.
type Model struct {
	name string
	vars []variable
	cons []constraint
	// rows holds every constraint's terms in one compressed sparse row
	// store: constraint i's are idx/val[ptr[i]:ptr[i+1]], duplicates
	// merged and zeros dropped. Terms past ptr[len(cons)] are the pending
	// ones of the constraint AddTerm is building. The solver reads this
	// store as its row store; it never writes to it.
	rows sparse
	// bad is the first unknown variable a pending term named, -1 if none.
	bad  VarID
	slot []int32 // EndConstraint scratch, all zero between calls
	// varNames and conNames hold the non-empty names given to AddVariable
	// and EndConstraint, by index; each stays nil until its first one.
	// Every other name comes from namer, on demand.
	varNames, conNames []string
	namer              Namer
}

// Namer names a model's variables and constraints on demand, so a builder
// that lays its model out by a rule of its own need not store a string
// per column and row that only error text and tests ever read. Either
// method may be asked for the index of the variable or constraint being
// added, which does not exist yet.
type Namer interface {
	VariableName(v VarID) string
	ConstraintName(i int) string
}

// SetNamer makes n name every variable and constraint that was given no
// name of its own.
func (m *Model) SetNamer(n Namer) { m.namer = n }

// NewModel returns an empty minimization model.
func NewModel(name string) *Model {
	return &Model{name: name, rows: sparse{ptr: []int32{0}}, bad: -1}
}

// Reserve makes room for vars more variables, cons more constraints and
// terms more constraint terms, so a caller that knows the model's size
// builds it without regrowing its arrays.
func (m *Model) Reserve(vars, cons, terms int) {
	m.vars = slices.Grow(m.vars, vars)
	m.cons = slices.Grow(m.cons, cons)
	m.rows.ptr = slices.Grow(m.rows.ptr, cons)
	m.rows.idx = slices.Grow(m.rows.idx, terms)
	m.rows.val = slices.Grow(m.rows.val, terms)
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
	v := VarID(len(m.vars))
	if err := m.checkBounds(v, name, lo, hi); err != nil {
		return 0, err
	}
	if math.IsNaN(obj) {
		return 0, fmt.Errorf("lp: NaN in variable %q", m.varName(v, name))
	}
	m.vars = append(m.vars, variable{lo: lo, hi: hi, obj: obj})
	m.varNames = setName(m.varNames, int(v), name)
	return v, nil
}

// checkBounds validates bounds [lo, hi] for variable v, named name if
// that is not empty.
func (m *Model) checkBounds(v VarID, name string, lo, hi float64) error {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("lp: NaN bound for variable %q", m.varName(v, name))
	}
	if math.IsInf(lo, 0) {
		return fmt.Errorf("lp: variable %q: free (unbounded-below) variables are not supported", m.varName(v, name))
	}
	if lo > hi {
		return fmt.Errorf("lp: variable %q: lower bound %v above upper bound %v", m.varName(v, name), lo, hi)
	}
	return nil
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
	if err := m.checkBounds(v, "", lo, hi); err != nil {
		return err
	}
	m.vars[v].lo = lo
	m.vars[v].hi = hi
	return nil
}

// VariableName returns the name given at AddVariable, or else the one
// the model's Namer gives v.
func (m *Model) VariableName(v VarID) string {
	if !m.validVar(v) {
		return fmt.Sprintf("var(%d)", v)
	}
	return m.varName(v, "")
}

// ConstraintName returns the name given to the i-th AddConstraint or
// EndConstraint call, or else the one the model's Namer gives it.
func (m *Model) ConstraintName(i int) string {
	if i < 0 || i >= len(m.cons) {
		return fmt.Sprintf("con(%d)", i)
	}
	return m.conName(i, "")
}

// varName names variable v, which may be the one AddVariable is adding:
// by given if that is not empty, else by the name stored for v, else by
// the Namer.
func (m *Model) varName(v VarID, given string) string {
	switch {
	case given != "":
		return given
	case int(v) < len(m.varNames) && m.varNames[v] != "":
		return m.varNames[v]
	case m.namer != nil:
		return m.namer.VariableName(v)
	}
	return ""
}

// conName is varName for constraint i.
func (m *Model) conName(i int, given string) string {
	switch {
	case given != "":
		return given
	case i < len(m.conNames) && m.conNames[i] != "":
		return m.conNames[i]
	case m.namer != nil:
		return m.namer.ConstraintName(i)
	}
	return ""
}

// setName stores name at index i of names, growing names only for a
// non-empty name.
func setName(names []string, i int, name string) []string {
	if name == "" {
		return names
	}
	if len(names) <= i {
		names = append(names, make([]string, i+1-len(names))...)
	}
	names[i] = name
	return names
}

func (m *Model) validVar(v VarID) bool { return v >= 0 && int(v) < len(m.vars) }

// AddConstraint adds Σ terms (sense) rhs. Terms referencing the same
// variable are accumulated. Zero-coefficient terms are dropped.
func (m *Model) AddConstraint(name string, sense Sense, rhs float64, terms ...Term) error {
	for _, t := range terms {
		m.AddTerm(t.Var, t.Coef)
	}
	return m.EndConstraint(name, sense, rhs)
}

// AddTerm appends coef·v to the constraint under construction, which
// EndConstraint closes. A model builder that streams its rows this way
// keeps no slice of terms per row: they go straight into the model's row
// store. An unknown variable is reported by EndConstraint.
func (m *Model) AddTerm(v VarID, coef float64) {
	if !m.validVar(v) {
		if m.bad < 0 {
			m.bad = v
		}
		v = -1
	}
	m.rows.idx = append(m.rows.idx, int32(v))
	m.rows.val = append(m.rows.val, coef)
}

// EndConstraint closes the constraint AddTerm has been building as
// Σ terms (sense) rhs, merging terms that name the same variable in
// first-appearance order and dropping zero coefficients, exactly as
// AddConstraint does. On an error the pending terms are discarded and the
// model is as it was before the first AddTerm.
func (m *Model) EndConstraint(name string, sense Sense, rhs float64) error {
	start := int(m.rows.ptr[len(m.cons)])
	idx, val := m.rows.idx[start:], m.rows.val[start:]
	if err := m.checkPending(name, sense, rhs, idx, val); err != nil {
		m.rows.idx, m.rows.val, m.bad = m.rows.idx[:start], m.rows.val[:start], -1
		return err
	}
	// Merge duplicate variables in place, in first-appearance order: while
	// the row is being merged slot[v] is v's merged position plus one.
	if len(m.slot) < len(m.vars) {
		m.slot = append(m.slot, make([]int32, len(m.vars)-len(m.slot))...)
	}
	n := 0
	for k, v := range idx {
		if at := m.slot[v]; at > 0 {
			val[at-1] += val[k]
			continue
		}
		idx[n], val[n] = v, val[k]
		n++
		m.slot[v] = int32(n)
	}
	kept := 0
	for k := 0; k < n; k++ {
		m.slot[idx[k]] = 0
		if val[k] != 0 {
			idx[kept], val[kept] = idx[k], val[k]
			kept++
		}
	}
	end := start + kept
	m.rows.idx, m.rows.val = m.rows.idx[:end], m.rows.val[:end]
	m.rows.ptr = append(m.rows.ptr, int32(end))
	m.conNames = setName(m.conNames, len(m.cons), name)
	m.cons = append(m.cons, constraint{sense: sense, rhs: rhs})
	return nil
}

// checkPending validates a constraint before EndConstraint closes it.
func (m *Model) checkPending(name string, sense Sense, rhs float64, idx []int32, val []float64) error {
	if sense != LE && sense != GE && sense != EQ {
		return m.pendingErr(name, ": bad sense %v", sense)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return m.pendingErr(name, ": bad rhs %v", rhs)
	}
	for k, v := range idx {
		if v < 0 {
			return m.pendingErr(name, " references unknown variable %d", m.bad)
		}
		if c := val[k]; math.IsNaN(c) || math.IsInf(c, 0) {
			return m.pendingErr(name, ": bad coefficient %v", c)
		}
	}
	return nil
}

// pendingErr is an error about the constraint EndConstraint is closing,
// named name if that is not empty: the name is looked up only here, so a
// constraint that passes its checks is never named.
func (m *Model) pendingErr(name, format string, args ...any) error {
	return fmt.Errorf("lp: constraint %q"+format, append([]any{m.conName(len(m.cons), name)}, args...)...)
}

// row returns constraint i's merged terms.
func (m *Model) row(i int) (idx []int32, val []float64) {
	lo, hi := m.rows.ptr[i], m.rows.ptr[i+1]
	return m.rows.idx[lo:hi], m.rows.val[lo:hi]
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusSingular: the solve was given up to numerical trouble before
	// any pivot limit, because a refactor found the basis no longer
	// factorizes or because the dual simplex reached an infeasibility
	// verdict whose Farkas row does not prove it.
	StatusSingular
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
	case StatusSingular:
		return "singular"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve, Solver.Solve/ReSolve, or SolveMILP.
// On infeasible, unbounded, iteration-limit and singular outcomes
// Objective is 0 and Values is nil; only the status and iteration
// counters are meaningful.
type Solution struct {
	Status     Status
	Objective  float64
	Values     []float64 // indexed by VarID
	Iterations int       // total simplex pivots (dual + phase 2)
	Nodes      int       // branch-and-bound nodes (1 for pure LP)

	// Phase split instrumentation (Table V observability). A cold solve
	// counts its dual run in DualIterations and Phase1Time, the time to a
	// feasible basis, and its primal clean-up in Phase2Iterations and
	// Phase2Time. A warm re-solve counts its dual run in DualIterations and
	// all its time in Phase2Time.
	Phase2Iterations int           // primal clean-up (optimality) pivots
	DualIterations   int           // dual-simplex pivots, cold or warm
	Phase1Time       time.Duration // wall time to a feasible basis of a cold solve
	Phase2Time       time.Duration // wall time from there (all of a warm re-solve)
	// WarmStarted reports whether this solution came from a warm re-solve
	// that reused the previous basis (Solver.ReSolve hit) rather than a
	// cold solve.
	WarmStarted bool
}

// TotalPivots sums the per-phase pivot counters. It usually equals
// Iterations, but is computed from the phase split, so it stays correct
// for callers (the trace instrumentation) that aggregate solutions whose
// Iterations field was overwritten by a MILP search total.
func (s *Solution) TotalPivots() int {
	return s.Phase2Iterations + s.DualIterations
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
	ErrSingular   = errors.New("lp: numerically singular")
	ErrEmptyModel = errors.New("lp: model has no variables")
)
