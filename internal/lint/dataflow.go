package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file holds the dataflow layer over the CFG core: a generic
// forward worklist solver, plus the per-package call-summary cache
// txnguard uses to reason across function boundaries without leaving
// the package.

// lattice supplies the per-analysis operations of the worklist solver.
// S is the abstract state attached to block boundaries.
type lattice[S any] struct {
	clone func(S) S
	equal func(S, S) bool
	// transfer applies blk's nodes to s in place; s is always a private
	// clone, so transfer functions may mutate freely.
	transfer func(blk *cfgBlock, s S)
}

// solveForward runs a forward worklist analysis to fixpoint and returns
// the entry state of every block (has[i] reports whether block i was
// reached) plus the join blocks whose predecessors disagreed. There is
// no merge: at a disagreement the solver adopts the state of the join's
// primary (first-linked) predecessor and records the block as a
// conflict — the behavior the lock analysis wants, since a disagreement
// there is itself the diagnostic.
func solveForward[S any](g *cfg, init S, lat lattice[S]) (in []S, has []bool, conflicts []*cfgBlock) {
	in = make([]S, len(g.blocks))
	has = make([]bool, len(g.blocks))
	conflicted := make([]bool, len(g.blocks))
	in[g.entry.index] = init
	has[g.entry.index] = true
	work := []*cfgBlock{g.entry}
	// The adoption rule cannot cycle through primary predecessors (they
	// are linked in source order), but cap the steps anyway so a
	// pathological lattice degrades to a partial result, never a hang.
	maxSteps := (len(g.blocks) + 1) * 64
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		blk := work[0]
		work = work[1:]
		out := lat.clone(in[blk.index])
		lat.transfer(blk, out)
		for _, succ := range blk.succs {
			i := succ.index
			switch {
			case !has[i]:
				in[i] = lat.clone(out)
				has[i] = true
				work = append(work, succ)
			case lat.equal(in[i], out):
			default:
				if !conflicted[i] {
					conflicted[i] = true
					conflicts = append(conflicts, succ)
				}
				if len(succ.preds) > 0 && succ.preds[0] == blk {
					in[i] = lat.clone(out)
					work = append(work, succ)
				}
			}
		}
	}
	return in, has, conflicts
}

// isPanicCall reports whether call invokes builtin panic.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// funcSummary is the whole-package call summary of one function
// declaration: the in-package functions it calls statically, in source
// order. Calls through function values and out-of-package callees are
// not summarized — analyzers that consume summaries must stay sound
// under that approximation (they treat unknown callees as opaque).
type funcSummary struct {
	decl  *ast.FuncDecl
	fn    *types.Func
	calls []*types.Func
}

// pkgSummaries indexes the summaries of one package.
type pkgSummaries struct {
	byFn   map[*types.Func]*funcSummary
	sorted []*funcSummary // deterministic iteration order (source order)
}

// summaries computes (and caches) the call summary of every function
// declaration in the package.
func (p *Pass) summaries() *pkgSummaries {
	if p.summaryCache != nil {
		return p.summaryCache
	}
	s := &pkgSummaries{byFn: make(map[*types.Func]*funcSummary)}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &funcSummary{decl: fd, fn: fn}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := staticCallee(p, call); callee != nil && callee.Pkg() == p.Pkg {
					sum.calls = append(sum.calls, callee)
				}
				return true
			})
			s.byFn[fn] = sum
			s.sorted = append(s.sorted, sum)
		}
	}
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].decl.Pos() < s.sorted[j].decl.Pos() })
	p.summaryCache = s
	return s
}

// staticCallee resolves a call's target function or method, nil for
// builtins, conversions, and function-value calls.
func staticCallee(p *Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reachableFrom walks the in-package static call graph from the given
// entry functions, stopping at (not descending into) functions for
// which stop returns true. It returns, for every function visited, the
// entry it was first reached from.
func (s *pkgSummaries) reachableFrom(entries []*types.Func, stop func(*types.Func) bool) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, e := range entries {
		if _, seen := from[e]; seen {
			continue
		}
		from[e] = e
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		sum := s.byFn[fn]
		if sum == nil {
			continue
		}
		for _, c := range sum.calls {
			if _, seen := from[c]; seen {
				continue
			}
			if stop != nil && stop(c) {
				continue
			}
			from[c] = from[fn]
			queue = append(queue, c)
		}
	}
	return from
}
