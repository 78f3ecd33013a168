package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerNoAlloc pins the data-plane hot path at zero allocations per
// call, statically. A function carrying the "//apple:noalloc" directive
// in its doc comment (the compiled matcher's Lookup/lookup/packetKey
// chain) may not contain any construct that can allocate: make/new/
// append, map or slice literals, address-of composite literals, string
// concatenation or string<->slice conversions, closures, go/defer
// statements, or map writes. Calls are allowed only to other annotated
// functions of the module (headerspace.Classifier.Classify walks its BDDs
// through the annotated bdd.Store.EvalBits), to the non-allocating builtins
// (len/cap/copy/clear/min/max/panic), and to sync/atomic and math/bits
// (register arithmetic the compiler intrinsifies) — anything else,
// including dynamic calls through function values or interfaces, is
// flagged because the analyzer cannot prove it allocation-free.
//
// The runtime twin of this check is testing.AllocsPerRun, which only
// measures the workloads a test happens to drive; the directive makes
// the contract hold for every future edit of the annotated bodies.
var AnalyzerNoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //apple:noalloc must contain no allocating construct and call only annotated, builtin, sync/atomic, or math/bits callees",
	Run:  runNoAlloc,
}

// noallocDirective is the doc-comment line that opts a function in.
const noallocDirective = "//apple:noalloc"

// noallocBuiltins are the builtins that never allocate.
var noallocBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "clear": true,
	"min": true, "max": true, "panic": true,
}

// hasNoallocDirective reports whether the declaration's doc group
// carries the directive.
func hasNoallocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == noallocDirective {
			return true
		}
	}
	return false
}

func runNoAlloc(pass *Pass) {
	// The loader collected the annotated function objects of the whole
	// module, so calls between annotated functions (Lookup -> lookupPtr
	// -> lookup -> packetKey) resolve as allowed in any package.
	annotated := pass.Noalloc
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && hasNoallocDirective(fd) {
				decls = append(decls, fd)
			}
		}
	}

	// Walk each annotated body and flag allocating constructs.
	for _, fd := range decls {
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in noalloc function %s allocates a goroutine", name)
				return false
			case *ast.DeferStmt:
				pass.Reportf(n.Pos(), "defer in noalloc function %s may allocate a defer record", name)
				return false
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "function literal in noalloc function %s allocates a closure", name)
				return false
			case *ast.UnaryExpr:
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
					pass.Reportf(lit.Pos(), "address of composite literal in noalloc function %s allocates", name)
					return false
				}
			case *ast.CompositeLit:
				switch pass.Info.Types[n].Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal in noalloc function %s allocates", name)
					return false
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal in noalloc function %s allocates", name)
					return false
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(pass.Info.Types[n].Type) {
					pass.Reportf(n.OpPos, "string concatenation in noalloc function %s allocates", name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if _, isMap := pass.Info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
						pass.Reportf(ix.Pos(), "map write in noalloc function %s may grow the map", name)
					}
				}
			case *ast.CallExpr:
				return checkNoallocCall(pass, annotated, name, n)
			}
			return true
		})
	}
}

// checkNoallocCall vets one call inside an annotated body and reports
// whether the walk should descend into the call's children.
func checkNoallocCall(pass *Pass, annotated map[*types.Func]bool, name string, call *ast.CallExpr) bool {
	// Type conversions: numeric casts are free, but crossing the
	// string/slice boundary or boxing into an interface copies.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.Info.Types[ast.Unparen(call.Args[0])].Type
		if from == nil {
			return true
		}
		switch {
		case isStringType(to) != isStringType(from):
			pass.Reportf(call.Pos(), "string conversion in noalloc function %s allocates", name)
			return false
		case types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()):
			pass.Reportf(call.Pos(), "conversion to interface in noalloc function %s allocates", name)
			return false
		}
		return true
	}

	callee := calleeObject(pass, call)
	switch fn := callee.(type) {
	case *types.Builtin:
		switch fn.Name() {
		case "make":
			pass.Reportf(call.Pos(), "make in noalloc function %s allocates", name)
		case "new":
			pass.Reportf(call.Pos(), "new in noalloc function %s allocates", name)
		case "append":
			pass.Reportf(call.Pos(), "append in noalloc function %s may allocate", name)
		default:
			if !noallocBuiltins[fn.Name()] {
				pass.Reportf(call.Pos(), "builtin %s in noalloc function %s is not allocation-free", fn.Name(), name)
			}
		}
	case *types.Func:
		if annotated[fn] {
			return true
		}
		if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sync/atomic" || pkg.Path() == "math/bits") {
			return true
		}
		pass.Reportf(call.Pos(), "call to %s in noalloc function %s; callee is not annotated apple:noalloc", fn.Name(), name)
	default:
		pass.Reportf(call.Pos(), "dynamic call in noalloc function %s cannot be proven allocation-free", name)
	}
	return true
}

// calleeObject resolves the static callee of a call, or nil for calls
// through function values.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
