package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file implements the per-function lock-state analysis shared by
// lockguard, guardedfield, and txnguard: a forward dataflow over the
// shared CFG (cfg.go, dataflow.go) that tracks which mutexes are held
// at every statement, records blocking operations performed under a
// lock, checks Lock/Unlock pairing across all paths, and snapshots the
// held set at every struct-field access.
//
// Mutexes are identified by the printed source expression of their
// receiver ("h.mu", "st.mu"), which is canonical within one function
// body.
//
// The analysis is intraprocedural and approximate: join blocks whose
// predecessors disagree about the held set are themselves the
// diagnostic (conditional lock/unlock), and loop heads must see the
// same state on the back edge as on entry. That is exactly the
// discipline the hand-written code follows; anything the approximation
// cannot prove is reported and must be restructured or suppressed with
// a reasoned //lint:ignore.

// heldLock is one currently-held mutex.
type heldLock struct {
	key      string // canonical receiver expression, e.g. "h.mu"
	rlock    bool
	pos      token.Pos // acquisition site
	deferred bool      // release is registered via defer
}

// lockState maps mutex key → held lock. It is mutated in place along
// straight-line flow and cloned at block boundaries.
type lockState map[string]*heldLock

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// equalKeys reports whether two states hold the same set of mutexes
// with the same modes and defer status.
func equalKeys(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.rlock != vb.rlock || va.deferred != vb.deferred {
			return false
		}
	}
	return true
}

func (st lockState) sortedKeys() []string {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// anyHeld returns an arbitrary-but-deterministic held lock, or nil.
func (st lockState) anyHeld() *heldLock {
	keys := st.sortedKeys()
	if len(keys) == 0 {
		return nil
	}
	return st[keys[0]]
}

// lockFinding is a diagnostic produced by the analysis, tagged by
// category so lockguard can report blocking/pairing issues while
// guardedfield consumes only access facts.
type lockFinding struct {
	pos token.Pos
	msg string
}

// accessFact is one field access with its concurrency context.
type accessFact struct {
	sel   *ast.SelectorExpr
	field *types.Var
	write bool
	held  []heldLock // snapshot, sorted by key
	async bool       // lexically inside a go statement
}

// funcLockFacts is the analysis result for one top-level function
// declaration (including every function literal nested in it).
type funcLockFacts struct {
	blocking []lockFinding
	pairing  []lockFinding
	accesses []accessFact
}

// lockFactsFor computes (and caches) the lock facts of every function
// declaration in the package.
func (p *Pass) lockFactsFor() map[*ast.FuncDecl]*funcLockFacts {
	if p.lockFacts != nil {
		return p.lockFacts
	}
	p.lockFacts = make(map[*ast.FuncDecl]*funcLockFacts)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{
				pass:     p,
				facts:    &funcLockFacts{},
				funcName: fd.Name.Name,
				record:   true,
			}
			w.analyzeBody(fd.Body.List, make(lockState), false, fd.Body.Rbrace, true)
			p.lockFacts[fd] = w.facts
		}
	}
	return p.lockFacts
}

// isAcquireHelper reports whether a function intentionally returns
// holding its mutex (the Table.lock contention-counting helper pattern).
func isAcquireHelper(name string) bool { return name == "lock" || name == "rlock" }

// describeLock renders a held lock as "h.mu.Lock() (file.go:12)".
func describeLock(h *heldLock, p *Pass) string {
	pos := p.Fset.Position(h.pos)
	mode := "Lock"
	if h.rlock {
		mode = "RLock"
	}
	return sprintf("%s.%s() (%s:%d)", h.key, mode, shortPath(pos.Filename), pos.Line)
}

// lockWalker carries the analysis context for one top-level function.
type lockWalker struct {
	pass     *Pass
	facts    *funcLockFacts
	funcName string
	// record gates every fact append: the solver's fixpoint iterations
	// run with record=false so re-visiting a block never duplicates a
	// finding; the final once-per-block pass runs with record=true.
	record bool
}

func (w *lockWalker) blockingFinding(pos token.Pos, msg string) {
	if w.record {
		w.facts.blocking = append(w.facts.blocking, lockFinding{pos: pos, msg: msg})
	}
}

func (w *lockWalker) pairingFinding(pos token.Pos, msg string) {
	if w.record {
		w.facts.pairing = append(w.facts.pairing, lockFinding{pos: pos, msg: msg})
	}
}

// analyzeBody builds and solves the CFG of one body — a function or a
// function literal, which inherits or resets the state per its
// concurrency mode. end anchors the fall-off-the-end pairing check and
// checkExit enables it (top-level bodies only; a literal's leaked lock
// surfaces at its call sites, not its closing brace). The return value
// is the lock state at the fall-through exit, or nil when the end of
// the body is unreachable — immediately-invoked literals feed it back
// into the caller's state.
func (w *lockWalker) analyzeBody(stmts []ast.Stmt, init lockState, async bool, end token.Pos, checkExit bool) lockState {
	g := buildCFG(stmts, cfgOptions{
		tryLock: func(call *ast.CallExpr) bool {
			_, op, ok := w.mutexOp(call)
			return ok && (op == "TryLock" || op == "TryRLock")
		},
		isPanic: func(call *ast.CallExpr) bool { return isPanicCall(w.pass, call) },
	})
	lat := lattice[lockState]{
		clone: lockState.clone,
		equal: equalKeys,
		transfer: func(blk *cfgBlock, st lockState) {
			w.transferBlock(blk, st, async)
		},
	}
	record := w.record
	w.record = false
	in, has, conflicts := solveForward(g, init.clone(), lat)
	w.record = record
	exitState := func() lockState {
		if has[g.exit.index] {
			return in[g.exit.index]
		}
		return nil
	}
	if !w.record {
		return exitState()
	}
	for _, blk := range conflicts {
		w.pairingFinding(blk.joinPos, mergeConflictMsg(blk))
	}
	for _, blk := range g.reachable() {
		if !has[blk.index] {
			continue
		}
		st := in[blk.index].clone()
		w.transferBlock(blk, st, async)
		if blk.ret != nil && !isAcquireHelper(w.funcName) {
			for _, k := range st.sortedKeys() {
				if h := st[k]; !h.deferred {
					w.pairingFinding(blk.ret.Pos(),
						sprintf("%s is not unlocked on this return path", describeLock(h, w.pass)))
				}
			}
		}
	}
	if checkExit && !isAcquireHelper(w.funcName) {
		if st := exitState(); st != nil {
			for _, k := range st.sortedKeys() {
				if h := st[k]; !h.deferred {
					w.pairingFinding(end,
						sprintf("%s is not unlocked when the function returns", describeLock(h, w.pass)))
				}
			}
		}
	}
	return exitState()
}

// mergeConflictMsg phrases a held-set disagreement in terms of the join
// that exposed it.
func mergeConflictMsg(blk *cfgBlock) string {
	switch blk.join {
	case joinLoop:
		return "lock state changes across a loop iteration (lock/unlock not balanced in the loop body)"
	case joinSwitch:
		return "switch case leaves different locks held than its siblings"
	case joinSelect:
		return "select cases leave different locks held (conditional lock/unlock)"
	default:
		return "branches leave different locks held (conditional lock/unlock)"
	}
}

// transferBlock applies one basic block's nodes to the lock state.
func (w *lockWalker) transferBlock(blk *cfgBlock, st lockState, async bool) {
	for _, n := range blk.nodes {
		switch {
		case n.acquire != nil:
			key, op, _ := w.mutexOp(n.acquire)
			st[key] = &heldLock{key: key, rlock: op == "TryRLock", pos: n.acquire.Pos()}
		case n.sel != nil:
			if h := st.anyHeld(); h != nil {
				w.blockingFinding(n.sel.Pos(),
					sprintf("select (blocking) while %s is held", describeLock(h, w.pass)))
			}
		case n.expr != nil:
			w.expr(n.expr, st, async)
		case n.stmt != nil:
			w.nodeStmt(n.stmt, st, async)
		}
	}
}

// nodeStmt applies one straight-line statement. Control statements never
// reach here — the CFG builder turned them into edges.
func (w *lockWalker) nodeStmt(s ast.Stmt, st lockState, async bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.expr(x.X, st, async)
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			w.expr(rhs, st, async)
		}
		for _, lhs := range x.Lhs {
			w.writeTarget(lhs, st, async)
		}
	case *ast.IncDecStmt:
		w.writeTarget(x.X, st, async)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st, async)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if key, op, ok := w.mutexOp(x.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if h, held := st[key]; held {
				h.deferred = true
			}
			return
		}
		w.expr(x.Call, st, async)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.expr(r, st, async)
		}
	case *ast.SendStmt:
		if h := st.anyHeld(); h != nil {
			w.blockingFinding(x.Pos(),
				sprintf("channel send while %s is held", describeLock(h, w.pass)))
		}
		w.expr(x.Chan, st, async)
		w.expr(x.Value, st, async)
	case *ast.GoStmt:
		for _, arg := range x.Call.Args {
			w.expr(arg, st, async)
		}
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			w.analyzeBody(lit.Body.List, make(lockState), true, lit.Body.Rbrace, false)
		} else {
			w.expr(x.Call.Fun, st, async)
		}
	}
}

func replace(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}
