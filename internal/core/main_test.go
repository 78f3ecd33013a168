package core

import (
	"fmt"
	"os"
	"testing"

	"github.com/apple-nfv/apple/internal/lp"
)

// Certified counts the LP solves whose optimality certificate TestMain's
// observer verified; the paper-scenario test reads it so it cannot pass
// without the engines having solved anything.
var Certified int

// TestMain points the solveObserver seam at lp.CheckCertificate: every LP
// solve any test of this package drives through Engine or
// IncrementalEngine — the cold solve, each repair re-solve, each snapshot
// re-solve — must come with row duals that prove it optimal. A bad
// certificate panics; the stack names the test and the solve.
func TestMain(m *testing.M) {
	solveObserver = func(md *lp.Model, s *lp.Solver, sol *lp.Solution) {
		if err := lp.CheckCertificate(md, sol.Values, s.Duals()); err != nil {
			panic(fmt.Sprintf("model %q: %v", md.Name(), err))
		}
		Certified++
	}
	os.Exit(m.Run())
}
