package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerTxnGuard proves the PR 7 make-before-break discipline at
// build time: every write to controller-owned state that is reachable
// from a class-set mutation entry point (InstallPlacement, AddClass,
// AddClassBatch, ReOptimize and their variants) must flow through a
// staged transaction op — a method of the package's *Txn type, or a
// helper that takes the transaction as a parameter — or carry a reasoned
// suppression.
//
// Fields are opted in with the annotation
//
//	instPool map[...]... // txn-owned: mutated only via staged RuleTxn ops
//
// anywhere in the field's doc or trailing comment. The analyzer then
// walks the package's static call graph (dataflow.go summaries) from
// the entry points, stopping at legal writers, and reports any write to
// an owned field in the functions it still reaches: such a write
// happens with no transaction in scope, which is exactly how the PR 7
// partial-install leaks were born (state mutated outside RuleTxn
// tracking survives an unwind).
//
// Approximations, on the conservative side of the reviewer's burden:
// calls through function values are not summarized, so writes performed
// only behind stored callbacks are not reached (the confine analyzer
// polices that escape route); writers never reached from an entry point
// (test helpers, constructors) are not constrained.
var AnalyzerTxnGuard = &Analyzer{
	Name: "txnguard",
	Doc:  "writes to txn-owned controller state reachable from InstallPlacement/AddClass/AddClassBatch/ReOptimize must go through a staged transaction op",
	Run:  runTxnGuard,
}

var txnOwnedRe = regexp.MustCompile(`txn-owned`)

func runTxnGuard(pass *Pass) {
	owned := collectTxnOwned(pass)
	if len(owned) == 0 {
		return
	}
	sums := pass.summaries()
	var entries []*types.Func
	for _, sum := range sums.sorted {
		if isTxnEntry(sum.fn) {
			entries = append(entries, sum.fn)
		}
	}
	if len(entries) == 0 {
		return
	}
	from := sums.reachableFrom(entries, func(fn *types.Func) bool { return txnLegal(pass, fn) })
	facts := pass.lockFactsFor()
	for _, sum := range sums.sorted {
		entry, reached := from[sum.fn]
		if !reached || txnLegal(pass, sum.fn) {
			continue
		}
		f := facts[sum.decl]
		if f == nil {
			continue
		}
		for _, acc := range f.accesses {
			if !acc.write {
				continue
			}
			name, ok := owned[acc.field]
			if !ok {
				continue
			}
			pass.Reportf(acc.sel.Sel.Pos(),
				"%s is written outside a RuleTxn (reached from entry %s with no transaction in scope; txn-owned state must be mutated through staged transaction ops)",
				name, entry.Name())
		}
	}
}

// collectTxnOwned parses the txn-owned field annotations of every
// struct in the package, mapping the field object to "Struct.field".
func collectTxnOwned(pass *Pass) map[*types.Var]string {
	owned := make(map[*types.Var]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !txnOwnedRe.MatchString(fieldCommentText(fld)) {
					continue
				}
				for _, name := range fld.Names {
					if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
						owned[obj] = ts.Name.Name + "." + name.Name
					}
				}
			}
			return true
		})
	}
	return owned
}

// isTxnEntry recognizes the class-set mutation entry points whose call
// trees the transaction discipline covers.
func isTxnEntry(fn *types.Func) bool {
	name := fn.Name()
	return strings.HasPrefix(name, "AddClass") || strings.HasPrefix(name, "ReOptimize") ||
		strings.HasPrefix(name, "InstallPlacement")
}

// txnLegal reports whether fn is a legal writer of txn-owned state: a
// method of the package's transaction type (its name ends in "Txn"), or
// a helper handed the transaction as a parameter — its writes are
// staged or tracked by construction.
func txnLegal(pass *Pass, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && isTxnType(pass, recv.Type()) {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isTxnType(pass, params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isTxnType(pass *Pass, t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == pass.Pkg && strings.HasSuffix(obj.Name(), "Txn")
}
