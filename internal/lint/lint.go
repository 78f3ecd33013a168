// Package lint is applelint: a project-specific static-analysis suite
// that proves, at compile time, the concurrency, callback, and
// determinism contracts the runtime test layer (-race, churn replay,
// property tests) can only spot-check on the interleavings it happens to
// explore. The suite is stdlib-only — go/parser + go/types + go/importer
// — so the module stays zero-dependency.
//
// Six analyzers ship (see DESIGN.md §12 for the invariant catalogue
// and what each has found):
//
//   - lockguard: no blocking operation (channel send/recv, select,
//     user-callback invocation, orchestrator Launch/ReconfigureIdle/
//     Cancel, time.Sleep, WaitGroup.Wait) while a sync.Mutex/RWMutex is
//     held, and every Lock() released on all return paths.
//   - guardedfield: struct fields annotated "guarded by <mu>" may only
//     be accessed while that mutex is held; fields annotated "confined
//     to the simulation loop" may not be touched from spawned
//     goroutines.
//   - callbackonce: every control path through a completion closure
//     scheduled by a function with onReady/onFail parameters invokes
//     exactly one callback exactly once (the PR 2 lifecycle contract).
//   - simclock: no wall clock (time.Now/Since/Sleep/…) and no global
//     math/rand source inside the deterministic packages (sim, lp,
//     policy, topology, traffic, experiments, trace), so Table IV/V
//     reproductions and journals stay bit-reproducible.
//   - noalloc: functions annotated "//apple:noalloc" (the compiled
//     data-plane lookup chain) contain no construct that can allocate
//     and call only annotated (in any package of the module), builtin,
//     sync/atomic, or math/bits callees.
//   - txnguard: writes to "txn-owned" controller state reachable from
//     InstallPlacement/AddClass/AddClassBatch/ReOptimize flow through a
//     staged RuleTxn op (the PR 7 partial-install class).
//
// lockguard, guardedfield, and callbackonce run on a shared
// intraprocedural CFG + forward dataflow core (cfg.go, dataflow.go);
// txnguard adds a per-package call-summary cache on top.
//
// Diagnostics print as "file:line:col: [analyzer] message" and may be
// suppressed with a "//lint:ignore <analyzer> <reason>" comment on the
// same line or the line directly above (see suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Noalloc is the load-wide set of "//apple:noalloc" functions
	// (Package.Noalloc).
	Noalloc map[*types.Func]bool

	analyzer string
	diags    *[]Diagnostic

	// lockFacts caches the per-function lock analysis shared by
	// lockguard and guardedfield (computed lazily, once per package).
	lockFacts map[*ast.FuncDecl]*funcLockFacts

	// summaryCache holds the per-package call summaries shared by the
	// whole-program analyzers (computed lazily, once per package).
	summaryCache *pkgSummaries
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerLockguard,
		AnalyzerGuardedField,
		AnalyzerCallbackOnce,
		AnalyzerSimClock,
		AnalyzerNoAlloc,
		AnalyzerTxnGuard,
	}
}

// RunPackage runs the given analyzers over one loaded package and
// returns its diagnostics with suppression comments applied, sorted by
// position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Fset:    pkg.Fset,
		Files:   pkg.Files,
		Pkg:     pkg.Types,
		Info:    pkg.Info,
		Noalloc: pkg.Noalloc,
		diags:   &diags,
	}
	for _, a := range analyzers {
		pass.analyzer = a.Name
		a.Run(pass)
	}
	diags = applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}
