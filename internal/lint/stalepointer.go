package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerStalePointer proves the PR 8 re-fetch discipline at build
// time. Commit and unwind boundaries (RuleTxn.Commit, unwind) replace
// controller-owned records wholesale: a pointer fetched from a table
// before the boundary may address a record the boundary already swapped
// out, so dereferencing it afterwards reads — or worse, mutates — state
// the controller no longer owns. The in-tree
// fix shape is a re-fetch-and-compare after the boundary (see
// internal/controller/dynamic.go); this analyzer makes forgetting that
// re-fetch a build failure instead of a replay-suite coin flip.
//
// Boundary functions are opted in with a doc-comment directive, in the
// style of //apple:noalloc:
//
//	//apple:boundary
//	func (t *RuleTxn) Commit() error { ... }
//
// Within each function body (and each function literal), a forward
// dataflow over the CFG tracks locals of pointer-to-named-struct type
// that were fetched from somewhere else — assigned from a call result,
// a field read, or an index expression. A call to a boundary function
// moves every fetched pointer to stale, except the boundary call's own
// receiver chain (txn.Commit() does not invalidate txn itself — the
// transaction object owns the boundary). Dereferencing a stale pointer
// (field select, unary *, index) is reported; re-assigning the variable
// from a fresh fetch clears it. At joins, stale dominates: a pointer
// stale on any incoming path is stale after the join, which is what
// catches the loop-carried shape (fetch in iteration i, boundary at the
// end of the loop body, deref in iteration i+1).
//
// Pointers freshly allocated in the function (&T{...}, new(T)) are not
// tracked — the boundary cannot have swapped out a record nobody else
// has seen.
var AnalyzerStalePointer = &Analyzer{
	Name: "stalepointer",
	Doc:  "a pointer fetched before a commit/unwind boundary may not be dereferenced after it without a re-fetch",
	Run:  runStalePointer,
}

// boundaryDirective is the doc-comment line that marks a boundary fn.
const boundaryDirective = "//apple:boundary"

func runStalePointer(pass *Pass) {
	bounds := boundaryFuncs(pass)
	if len(bounds) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sw := &staleWalker{pass: pass, bounds: bounds, reported: make(map[token.Pos]bool)}
			sw.analyzeBody(fd.Body.List)
			// Literals get their own graphs: a closure runs later, so
			// pointer facts do not flow between it and its host.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					sw.analyzeBody(lit.Body.List)
				}
				return true
			})
		}
	}
}

// boundaryFuncs collects the package functions carrying the
// //apple:boundary directive.
func boundaryFuncs(pass *Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) != boundaryDirective {
					continue
				}
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = true
				}
				break
			}
		}
	}
	return out
}

// ptrFact is the abstract state of one tracked local.
type ptrFact struct {
	fetchPos token.Pos // where the pointer was fetched
	stale    bool
	boundary token.Pos // the boundary call that staled it
	bname    string    // boundary function name, for the message
}

// staleState maps tracked locals to their facts.
type staleState map[*types.Var]*ptrFact

func (s staleState) clone() staleState {
	out := make(staleState, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

func (s staleState) equal(o staleState) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		w, ok := o[k]
		if !ok || *v != *w {
			return false
		}
	}
	return true
}

// staleWalker runs the two-phase (solve, then record) dataflow of one
// body.
type staleWalker struct {
	pass     *Pass
	bounds   map[*types.Func]bool
	record   bool
	reported map[token.Pos]bool
}

func (sw *staleWalker) analyzeBody(stmts []ast.Stmt) {
	g := buildCFG(stmts, cfgOptions{
		isPanic: func(call *ast.CallExpr) bool { return isPanicCall(sw.pass, call) },
	})
	lat := lattice[staleState]{
		clone:    func(s staleState) staleState { return s.clone() },
		equal:    func(a, b staleState) bool { return a.equal(b) },
		transfer: func(blk *cfgBlock, s staleState) { sw.transferBlock(blk, s) },
		// Stale dominates: a pointer invalidated on any path into the
		// join stays invalidated after it.
		merge: func(have, incoming staleState) staleState {
			for v, inc := range incoming {
				h, ok := have[v]
				if !ok {
					c := *inc
					have[v] = &c
					continue
				}
				if inc.stale && !h.stale {
					h.stale = true
					h.boundary = inc.boundary
					h.bname = inc.bname
				}
			}
			return have
		},
	}
	in, has, _ := solveForward(g, make(staleState), lat)
	sw.record = true
	for _, blk := range g.reachable() {
		if !has[blk.index] {
			continue
		}
		sw.transferBlock(blk, in[blk.index].clone())
	}
	sw.record = false
}

func (sw *staleWalker) transferBlock(blk *cfgBlock, s staleState) {
	for _, n := range blk.nodes {
		switch {
		case n.stmt != nil:
			sw.stmt(n.stmt, s)
		case n.expr != nil:
			sw.expr(n.expr, s)
		case n.acquire != nil:
			sw.expr(n.acquire, s)
		}
	}
	if blk.ret != nil {
		for _, r := range blk.ret.Results {
			sw.expr(r, s)
		}
	}
}

func (sw *staleWalker) stmt(stmt ast.Stmt, s staleState) {
	switch x := stmt.(type) {
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			sw.expr(r, s)
		}
		if len(x.Lhs) == len(x.Rhs) {
			for i, lhs := range x.Lhs {
				sw.assign(lhs, x.Rhs[i], s)
			}
		} else {
			// Multi-value call: every pointer-typed target is a fetch.
			for _, lhs := range x.Lhs {
				sw.assign(lhs, x.Rhs[0], s)
			}
		}
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			for _, val := range vs.Values {
				sw.expr(val, s)
			}
			if len(vs.Names) == len(vs.Values) {
				for i, name := range vs.Names {
					sw.assign(name, vs.Values[i], s)
				}
			}
		}
	case *ast.ExprStmt:
		sw.expr(x.X, s)
	case *ast.SendStmt:
		sw.expr(x.Chan, s)
		sw.expr(x.Value, s)
	case *ast.IncDecStmt:
		sw.expr(x.X, s)
	case *ast.DeferStmt:
		sw.expr(x.Call, s)
	case *ast.GoStmt:
		// The goroutine body runs later; only the call operands are
		// evaluated here.
		for _, a := range x.Call.Args {
			sw.expr(a, s)
		}
	case *ast.LabeledStmt:
		sw.stmt(x.Stmt, s)
	}
}

// assign updates the fact of a simple local target: a fetched pointer
// starts (or restarts) fresh, anything else unbinds the variable.
func (sw *staleWalker) assign(lhs, rhs ast.Expr, s staleState) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v := sw.localPtrVar(id)
	if v == nil {
		return
	}
	if sw.isFetch(rhs) {
		s[v] = &ptrFact{fetchPos: id.Pos()}
	} else {
		delete(s, v)
	}
}

// isFetch reports whether the expression pulls a pointer out of state
// that a boundary may later replace: a call result, a field read, or an
// index. Fresh allocations and plain copies of untracked values are not
// fetches.
func (sw *staleWalker) isFetch(rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := sw.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return false // new(T) is fresh
			}
		}
		if tv, ok := sw.pass.Info.Types[x.Fun]; ok && tv.IsType() {
			return false // conversion
		}
		return true
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.TypeAssertExpr:
		return sw.isFetch(x.X)
	}
	return false
}

// localPtrVar resolves id to a function-local variable of
// pointer-to-named-type, the only shape tracked.
func (sw *staleWalker) localPtrVar(id *ast.Ident) *types.Var {
	obj := sw.pass.Info.Uses[id]
	if obj == nil {
		obj = sw.pass.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if sw.pass.Pkg != nil && v.Parent() == sw.pass.Pkg.Scope() {
		return nil
	}
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	_, named := ptr.Elem().(*types.Named)
	if !named {
		return nil
	}
	return v
}

// expr walks an expression: dereferences of stale pointers report,
// boundary calls invalidate.
func (sw *staleWalker) expr(e ast.Expr, s staleState) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		for _, a := range x.Args {
			sw.expr(a, s)
		}
		sw.expr(x.Fun, s)
		if fn := staticCallee(sw.pass, x); fn != nil && sw.bounds[fn] {
			sw.crossBoundary(x, fn, s)
		}
	case *ast.SelectorExpr:
		sw.checkDeref(x.X, s)
		sw.expr(x.X, s)
	case *ast.StarExpr:
		sw.checkDeref(x.X, s)
		sw.expr(x.X, s)
	case *ast.IndexExpr:
		sw.checkDeref(x.X, s)
		sw.expr(x.X, s)
		sw.expr(x.Index, s)
	case *ast.UnaryExpr:
		sw.expr(x.X, s)
	case *ast.BinaryExpr:
		sw.expr(x.X, s)
		sw.expr(x.Y, s)
	case *ast.ParenExpr:
		sw.expr(x.X, s)
	case *ast.SliceExpr:
		sw.checkDeref(x.X, s)
		sw.expr(x.X, s)
		sw.expr(x.Low, s)
		sw.expr(x.High, s)
		sw.expr(x.Max, s)
	case *ast.TypeAssertExpr:
		sw.expr(x.X, s)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			sw.expr(el, s)
		}
	case *ast.KeyValueExpr:
		sw.expr(x.Key, s)
		sw.expr(x.Value, s)
	}
}

// crossBoundary marks every fetched pointer stale, sparing the boundary
// call's own receiver chain.
func (sw *staleWalker) crossBoundary(call *ast.CallExpr, fn *types.Func, s staleState) {
	exempt := make(map[*types.Var]bool)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		for e := ast.Unparen(sel.X); ; {
			switch x := e.(type) {
			case *ast.Ident:
				if v, ok := sw.pass.Info.Uses[x].(*types.Var); ok {
					exempt[v] = true
				}
			case *ast.SelectorExpr:
				e = ast.Unparen(x.X)
				continue
			case *ast.StarExpr:
				e = ast.Unparen(x.X)
				continue
			}
			break
		}
	}
	for v, f := range s {
		if f.stale || exempt[v] {
			continue
		}
		f.stale = true
		f.boundary = call.Pos()
		f.bname = fn.Name()
	}
}

// checkDeref reports a dereference of a stale pointer.
func (sw *staleWalker) checkDeref(base ast.Expr, s staleState) {
	if !sw.record {
		return
	}
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return
	}
	v := sw.localPtrVar(id)
	if v == nil {
		return
	}
	f, tracked := s[v]
	if !tracked || !f.stale {
		return
	}
	if sw.reported[id.Pos()] {
		return
	}
	sw.reported[id.Pos()] = true
	bpos := sw.pass.Fset.Position(f.boundary)
	sw.pass.Reportf(id.Pos(),
		"%s may be stale: it was fetched before the %s boundary (%s:%d) and is dereferenced after it without a re-fetch",
		v.Name(), f.bname, shortPath(bpos.Filename), bpos.Line)
}
