package lp

import (
	"fmt"
	"os"
	"testing"
)

// certified counts the optimal solves whose certificate TestMain's hook
// checked, and proven the infeasibility verdicts whose Farkas row the
// solver proved; tests that must not pass vacuously read them.
var certified, proven int

// TestMain points the onOptimal seam at CheckCertificate, so every optimal
// solve any test of this package makes — cold, warm, or a branch-and-bound
// node inside SolveMILP — carries a verified optimality certificate. A bad
// certificate panics: the stack names the test and the solve.
func TestMain(m *testing.M) {
	onOptimal = func(s *Solver, sol *Solution) {
		if err := CheckCertificate(s.model, sol.Values, s.Duals()); err != nil {
			panic(fmt.Sprintf("model %q: %v", s.model.name, err))
		}
		certified++
	}
	onInfeasible = func() { proven++ }
	os.Exit(m.Run())
}
