package lp

// NewEnginePair exposes the sparse-vs-dense differential harness to the
// external test package, which needs core and experiments (both import lp)
// to build the paper's placement models.
var NewEnginePair = newEnginePair

// SuspendCertificates turns TestMain's certificate hook off until the
// returned function is called: the checker allocates, which the allocation
// pins must not count.
func SuspendCertificates() (restore func()) {
	hook := onOptimal
	onOptimal = nil
	return func() { onOptimal = hook }
}

// Solve solves the LP relaxation of the model (integrality flags are
// ignored) with a cold Solver.Solve: the bounded-variable revised simplex
// over a sparse column store, dual from the slack basis with a primal
// clean-up. Variable bounds lo ≤ x ≤ hi are handled natively in
// the ratio test (nonbasic variables may sit at either bound), so finite
// bounds never generate rows. It returns ErrInfeasible, ErrUnbounded,
// ErrIterLimit or ErrSingular wrapped with context on failure; on success
// Solution.Status is StatusOptimal.
func Solve(m *Model) (Solution, error) {
	s := NewSolver(m)
	return s.Solve()
}

// IsInteger reports whether v is marked integral.
func (m *Model) IsInteger(v VarID) bool {
	return m.validVar(v) && m.vars[v].integer
}
