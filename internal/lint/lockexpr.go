package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func shortPath(name string) string { return filepath.Base(name) }

// expr walks an expression in evaluation position, updating lock state
// for mutex operations, recording blocking operations and field
// accesses, and descending into function literals with the appropriate
// concurrency context.
func (w *lockWalker) expr(e ast.Expr, st lockState, async bool) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(x, st, async)
	case *ast.SelectorExpr:
		w.recordAccess(x, false, st, async)
		w.expr(x.X, st, async)
	case *ast.UnaryExpr:
		if x.Op.String() == "<-" {
			if h := st.anyHeld(); h != nil {
				w.blockingFinding(x.Pos(), sprintf("channel receive while %s is held", describeLock(h, w.pass)))
			}
		}
		w.expr(x.X, st, async)
	case *ast.BinaryExpr:
		w.expr(x.X, st, async)
		w.expr(x.Y, st, async)
	case *ast.ParenExpr:
		w.expr(x.X, st, async)
	case *ast.StarExpr:
		w.expr(x.X, st, async)
	case *ast.IndexExpr:
		w.expr(x.X, st, async)
		w.expr(x.Index, st, async)
	case *ast.SliceExpr:
		w.expr(x.X, st, async)
		w.expr(x.Low, st, async)
		w.expr(x.High, st, async)
		w.expr(x.Max, st, async)
	case *ast.TypeAssertExpr:
		w.expr(x.X, st, async)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.expr(el, st, async)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Key, st, async)
		w.expr(x.Value, st, async)
	case *ast.FuncLit:
		// A literal in value position runs later, with unknown locks.
		w.analyzeBody(x.Body.List, make(lockState), async, x.Body.Rbrace, false)
	}
}

// writeTarget records the assignment target's field accesses as writes.
func (w *lockWalker) writeTarget(e ast.Expr, st lockState, async bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		w.recordAccess(x, true, st, async)
		w.expr(x.X, st, async)
	case *ast.IndexExpr:
		// Writing an element mutates the container a field holds:
		// h.counters[port]++ is a write of h.counters.
		w.writeTarget(x.X, st, async)
		w.expr(x.Index, st, async)
	case *ast.ParenExpr:
		w.writeTarget(x.X, st, async)
	case *ast.StarExpr:
		w.expr(x.X, st, async)
	default:
		w.expr(e, st, async)
	}
}

// call classifies one call expression.
func (w *lockWalker) call(call *ast.CallExpr, st lockState, async bool) {
	// Conversions and builtins are not calls of interest; still walk
	// their operands.
	if tv, ok := w.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			w.expr(a, st, async)
		}
		return
	}

	if key, op, ok := w.mutexOp(call); ok {
		switch op {
		case "Lock", "RLock":
			if h, already := st[key]; already && !(op == "RLock" && h.rlock) {
				w.blockingFinding(call.Pos(), sprintf("%s.%s() while %s is already held (self-deadlock)",
					key, op, describeLock(h, w.pass)))
			}
			st[key] = &heldLock{key: key, rlock: op == "RLock", pos: call.Pos()}
		case "Unlock", "RUnlock":
			delete(st, key)
		case "TryLock", "TryRLock":
			// Only the `if mu.TryLock()` form is tracked (the CFG
			// builder models it as an acquisition on the then-edge); a
			// discarded or stored result is not modeled.
		}
		return
	}

	if key, rlock, ok := w.acquireHelper(call); ok {
		st[key] = &heldLock{key: key, rlock: rlock, pos: call.Pos()}
		return
	}

	if len(st) > 0 {
		if desc := w.blockingCallee(call); desc != "" {
			h := st.anyHeld()
			w.blockingFinding(call.Pos(), sprintf("%s while %s is held", desc, describeLock(h, w.pass)))
		}
	}

	// Immediately-invoked literal: runs synchronously under the current
	// lock state, and its fall-through effects flow back into it.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		if out := w.analyzeBody(lit.Body.List, st, async, lit.Body.Rbrace, false); out != nil {
			replace(st, out)
		}
	} else {
		w.expr(call.Fun, st, async)
	}
	deferred := runsLitLater(call)
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			if deferred {
				w.analyzeBody(lit.Body.List, make(lockState), false, lit.Body.Rbrace, false)
			} else {
				// Synchronous higher-order call (sort.Slice and
				// friends): the literal runs under the caller's locks.
				w.analyzeBody(lit.Body.List, st.clone(), async, lit.Body.Rbrace, false)
			}
			continue
		}
		w.expr(a, st, async)
	}
}

// runsLitLater reports whether the callee runs its function-literal
// arguments later, on the (single-threaded) simulation event loop, rather
// than synchronously under the caller's locks. Only a go statement runs a
// literal on another goroutine.
func runsLitLater(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "After", "At", "Every", "OnEvent", "AfterFunc":
		return true
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// calleeObj resolves the called object, if it is a simple identifier or
// selector.
func (w *lockWalker) calleeObj(call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return w.pass.Info.Uses[f]
	case *ast.SelectorExpr:
		return w.pass.Info.Uses[f.Sel]
	}
	return nil
}

// mutexOp reports whether the call is a sync.Mutex/RWMutex method and
// returns the canonical mutex key and operation name.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	fn, isFn := w.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	named, isNamed := deref(recv.Type()).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// acquireHelper recognizes calls of this package's lock()/rlock()
// acquire helpers (methods that take the receiver's mu and return
// holding it, e.g. flowtable's contention-counting Table.lock).
func (w *lockWalker) acquireHelper(call *ast.CallExpr) (key string, rlock bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	if name != "lock" && name != "rlock" {
		return "", false, false
	}
	fn, isFn := w.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() != w.pass.Pkg || fn.Type().(*types.Signature).Recv() == nil {
		return "", false, false
	}
	return types.ExprString(sel.X) + ".mu", name == "rlock", true
}

// blockingCallee classifies calls that can block or run arbitrary user
// code; returns a description, or "" if benign.
func (w *lockWalker) blockingCallee(call *ast.CallExpr) string {
	obj := w.calleeObj(call)
	switch fn := obj.(type) {
	case *types.Func:
		pkg := fn.Pkg()
		if pkg != nil && pkg.Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok {
				recvName := named.Obj().Name()
				if recvName == "WaitGroup" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && fn.Name() == "Wait" {
					return "sync.WaitGroup.Wait"
				}
				if recvName == "Orchestrator" {
					switch fn.Name() {
					case "Launch", "ReconfigureIdle", "Cancel":
						return sprintf("orchestrator lifecycle call %s.%s (schedules completion callbacks)", recvName, fn.Name())
					}
				}
			}
		}
	case *types.Var:
		if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
			return sprintf("call of function value %q (user callback)", types.ExprString(call.Fun))
		}
	}
	return ""
}

// recordAccess snapshots a struct-field access with the current lock
// state and concurrency context.
func (w *lockWalker) recordAccess(sel *ast.SelectorExpr, write bool, st lockState, async bool) {
	if !w.record {
		return
	}
	selection, ok := w.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	held := make([]heldLock, 0, len(st))
	for _, k := range st.sortedKeys() {
		held = append(held, *st[k])
	}
	w.facts.accesses = append(w.facts.accesses, accessFact{
		sel:   sel,
		field: field,
		write: write,
		held:  held,
		async: async,
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
