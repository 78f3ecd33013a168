package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerCallbackOnce proves the PR 2 lifecycle contract at build
// time: a function that accepts a completion-callback pair (two or more
// func-typed parameters named on*, e.g. onReady/onFail) and schedules a
// completion closure on the simulation clock must invoke exactly one
// callback exactly once on every control path through that closure.
//
// The analyzer enumerates paths over the closure's CFG (cfg.go), so
// if/else, switch, select, goto, and labeled-break shapes are all
// covered by construction. The nil-guard idiom
//
//	if onFail != nil {
//	    onFail(id, err)
//	}
//
// counts as one logical invocation on every path (the contract lets
// callers pass nil for a callback they don't care about); the builder
// collapses it to an opaque weight-1 node. Loops are likewise collapsed:
// a callback call inside one is reported directly — it can fire once
// per iteration. Paths ending in panic are exempt — they are
// "unreachable by construction" assertions, not lifecycle outcomes.
//
// Synchronous callback invocation from the scheduling function itself
// is also reported: the contract requires callbacks to fire later, on
// the clock, only after the function returned nil — a synchronous call
// is how double-callback bugs are born.
var AnalyzerCallbackOnce = &Analyzer{
	Name: "callbackonce",
	Doc:  "every control path through a scheduled completion closure invokes exactly one completion callback exactly once",
	Run:  runCallbackOnce,
}

// maxPaths bounds path enumeration per closure.
const maxPaths = 4096

func runCallbackOnce(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cbs := completionParams(pass, fd)
			if len(cbs) < 2 {
				continue
			}
			checkSyncInvocation(pass, fd, cbs)
			for _, lit := range scheduledClosures(pass, fd, cbs) {
				enumerate(pass, lit, cbs)
			}
		}
	}
}

// completionParams returns the func-typed parameters named on*.
func completionParams(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	cbs := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return cbs
	}
	for _, fld := range fd.Type.Params.List {
		for _, name := range fld.Names {
			obj := pass.Info.Defs[name]
			if obj == nil || len(name.Name) < 3 || name.Name[:2] != "on" {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				cbs[obj] = true
			}
		}
	}
	return cbs
}

// isCallbackCall reports whether the call invokes one of the completion
// callbacks directly.
func isCallbackCall(pass *Pass, call *ast.CallExpr, cbs map[types.Object]bool) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	return cbs[pass.Info.Uses[id]]
}

// checkSyncInvocation reports callback calls made outside any function
// literal — i.e. synchronously, before the scheduling function returns.
func checkSyncInvocation(pass *Pass, fd *ast.FuncDecl, cbs map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCallbackCall(pass, call, cbs) {
			pass.Reportf(call.Pos(),
				"completion callback %s invoked synchronously; the contract fires callbacks later, on the clock, exactly once",
				types.ExprString(call.Fun))
		}
		return true
	})
}

// scheduledClosures finds function literals passed to clock-scheduling
// calls (After/At/Every) that reference a completion callback.
func scheduledClosures(pass *Pass, fd *ast.FuncDecl, cbs map[types.Object]bool) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeName(call) {
		case "After", "At", "Every", "AfterFunc":
		default:
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			references := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && cbs[pass.Info.Uses[id]] {
					references = true
				}
				return !references
			})
			if references {
				out = append(out, lit)
			}
		}
		return true
	})
	return out
}

// termKind classifies how a path ends.
type termKind int

const (
	fallThrough termKind = iota
	returned
)

// outcome is one enumerated path: how many callback invocations it
// performed and where it ended.
type outcome struct {
	count int
	term  termKind
	pos   token.Pos
}

// pathEnum enumerates callback invocations along CFG paths.
type pathEnum struct {
	pass     *Pass
	cbs      map[types.Object]bool
	weight   map[ast.Stmt]int // collapsed nil-guards and loops
	reported map[token.Pos]bool
}

func enumerate(pass *Pass, lit *ast.FuncLit, cbs map[types.Object]bool) {
	pe := &pathEnum{
		pass:     pass,
		cbs:      cbs,
		weight:   make(map[ast.Stmt]int),
		reported: make(map[token.Pos]bool),
	}
	// Pre-pass: nil-guard ifs collapse to one logical invocation; loops
	// collapse to opaque nodes — a callback inside one is reported
	// directly, and the loop then counts as one logical invocation so
	// the tail paths aren't double-flagged.
	collapse := make(map[ast.Stmt]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if _, ok := pe.nilGuard(x); ok {
				collapse[x] = true
				pe.weight[x] = 1
				return false
			}
		case *ast.ForStmt:
			collapse[x] = true
			if pe.loopCheck(x.Body) {
				pe.weight[x] = 1
			}
			return false
		case *ast.RangeStmt:
			collapse[x] = true
			if pe.loopCheck(x.Body) {
				pe.weight[x] = 1
			}
			return false
		case *ast.FuncLit:
			// Nested literals run on their own schedule; they are not
			// part of this closure's path structure.
			return false
		}
		return true
	})

	g := buildCFG(lit.Body.List, cfgOptions{
		collapse: collapse,
		isPanic:  func(call *ast.CallExpr) bool { return isPanicCall(pass, call) },
	})

	type item struct {
		blk   *cfgBlock
		count int
	}
	type visitKey struct {
		idx   int
		count int
	}
	seen := make(map[visitKey]bool)
	stack := []item{{g.entry, 0}}
	var ends []outcome
	steps := 0
	for len(stack) > 0 {
		if steps++; steps > maxPaths {
			// Give up quietly rather than explode; the closures under
			// contract are small by construction.
			break
		}
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := it.count + pe.blockWeight(it.blk)
		switch {
		case it.blk.panics:
			// Panic paths are assertions, exempt from the contract.
		case it.blk.ret != nil:
			ends = append(ends, outcome{count: c, term: returned, pos: it.blk.ret.Pos()})
		case it.blk == g.exit:
			ends = append(ends, outcome{count: c, term: fallThrough, pos: lit.Body.Rbrace})
		default:
			for _, s := range it.blk.succs {
				k := visitKey{idx: s.index, count: c}
				if seen[k] {
					continue // also cuts goto cycles
				}
				seen[k] = true
				stack = append(stack, item{blk: s, count: c})
			}
		}
	}

	for _, o := range ends {
		switch {
		case o.count == 0:
			pe.reportOnce(o.pos, "control path through the completion closure invokes no completion callback (exactly-once contract)")
		case o.count > 1:
			pe.reportOnce(o.pos, sprintf("control path through the completion closure invokes completion callbacks %d times (exactly-once contract)", o.count))
		}
	}
}

// blockWeight sums the callback invocations of a block's straight-line
// nodes. Only top-level calls count, matching the reviewer-auditable
// level of the contract.
func (pe *pathEnum) blockWeight(blk *cfgBlock) int {
	total := 0
	for _, n := range blk.nodes {
		if n.stmt == nil {
			continue
		}
		if w, ok := pe.weight[n.stmt]; ok {
			total += w
			continue
		}
		switch x := n.stmt.(type) {
		case *ast.ExprStmt:
			total += pe.exprWeight(x.X)
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				total += pe.exprWeight(r)
			}
		case *ast.DeferStmt:
			if isCallbackCall(pe.pass, x.Call, pe.cbs) {
				total++
			}
		}
	}
	return total
}

func (pe *pathEnum) exprWeight(e ast.Expr) int {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && isCallbackCall(pe.pass, call, pe.cbs) {
		return 1
	}
	return 0
}

func (pe *pathEnum) reportOnce(pos token.Pos, msg string) {
	if pe.reported[pos] {
		return
	}
	pe.reported[pos] = true
	pe.pass.Reportf(pos, "%s", msg)
}

// nilGuard matches `if cb != nil { cb(...) }` with no else: one logical
// invocation (a nil callback waives its delivery by contract).
func (pe *pathEnum) nilGuard(x *ast.IfStmt) (types.Object, bool) {
	if x.Else != nil || x.Init != nil || len(x.Body.List) != 1 {
		return nil, false
	}
	bin, ok := x.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return nil, false
	}
	var cbIdent *ast.Ident
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && pe.cbs[pe.pass.Info.Uses[id]] {
			cbIdent = id
		}
	}
	if cbIdent == nil {
		return nil, false
	}
	es, ok := x.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || !isCallbackCall(pe.pass, call, pe.cbs) {
		return nil, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || pe.pass.Info.Uses[id] != pe.pass.Info.Uses[cbIdent] {
		return nil, false
	}
	return pe.pass.Info.Uses[cbIdent], true
}

// loopCheck reports callback calls (guarded or not) inside a loop body
// and reports whether it found any.
func (pe *pathEnum) loopCheck(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCallbackCall(pe.pass, call, pe.cbs) {
			found = true
			pe.reportOnce(call.Pos(), "completion callback invoked inside a loop: it can fire once per iteration (exactly-once contract)")
		}
		return true
	})
	return found
}
