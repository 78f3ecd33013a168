package lint

import (
	"go/ast"
	"go/token"
)

// This file is the shared control-flow-graph core of applelint. The
// lock analysis behind lockguard, guardedfield and txnguard, and
// callbackonce's path enumeration, build their function CFGs here
// instead of hand-rolling a syntax-directed walk.
//
// The graph is a conventional basic-block CFG over go/ast statements:
// straight-line statements and evaluated expressions (conditions, switch
// tags, range operands) become nodes inside a block; control constructs
// become edges. Join blocks remember why they merge (branch, switch,
// select, loop head) so solvers can phrase state-disagreement
// diagnostics in source terms.

// joinKind classifies why a block has multiple predecessors.
type joinKind int

const (
	joinNone joinKind = iota
	joinBranch
	joinSwitch
	joinSelect
	joinLoop
)

// cfgNode is one straight-line instruction inside a basic block.
// Exactly one field is set.
type cfgNode struct {
	stmt    ast.Stmt      // plain statement (assign, expr, defer, go, send, decl, return)
	expr    ast.Expr      // evaluated expression: if/for condition, switch tag, range operand
	acquire *ast.CallExpr // synthetic TryLock/TryRLock acquisition on the taken edge
	sel     *ast.SelectStmt
}

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	nodes []cfgNode
	succs []*cfgBlock
	preds []*cfgBlock

	ret    *ast.ReturnStmt // set when the block terminates in a return
	panics bool            // block ends in a call to builtin panic

	join    joinKind  // why this block merges control flow
	joinPos token.Pos // source anchor for merge diagnostics
}

// cfg is the graph of one function or function-literal body.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock // reached by falling off the end of the body
	blocks []*cfgBlock
}

// reachable returns the blocks reachable from entry, in index order
// (which is construction order, i.e. roughly source order).
func (g *cfg) reachable() []*cfgBlock {
	seen := make([]bool, len(g.blocks))
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b.index] {
			return
		}
		seen[b.index] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	var out []*cfgBlock
	for _, b := range g.blocks {
		if seen[b.index] {
			out = append(out, b)
		}
	}
	return out
}

// cfgOptions customizes construction per analyzer.
type cfgOptions struct {
	// tryLock recognizes `if mu.TryLock()` conditions; the builder then
	// records the acquisition as a synthetic node on the then-edge
	// instead of an evaluated condition.
	tryLock func(*ast.CallExpr) bool
	// isPanic recognizes calls of builtin panic, which terminate a block
	// with no successors.
	isPanic func(*ast.CallExpr) bool
	// collapse marks statements the caller wants treated as opaque
	// straight-line nodes (callbackonce collapses nil-guard ifs and
	// loops it has already checked); the builder does not descend into
	// them.
	collapse map[ast.Stmt]bool
}

// loopCtx is one entry of the break/continue target stack.
type loopCtx struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select (not a continue target)
}

type cfgBuilder struct {
	g     *cfg
	opts  cfgOptions
	loops []*loopCtx

	labelBlocks  map[string]*cfgBlock
	pendingGotos map[string][]*cfgBlock

	// fallthroughTo is the next case block while building a switch case.
	fallthroughTo *cfgBlock
}

// buildCFG constructs the CFG of one statement list (a function or
// function-literal body).
func buildCFG(stmts []ast.Stmt, opts cfgOptions) *cfg {
	b := &cfgBuilder{
		g:            &cfg{},
		opts:         opts,
		labelBlocks:  make(map[string]*cfgBlock),
		pendingGotos: make(map[string][]*cfgBlock),
	}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	if end := b.walk(stmts, b.g.entry); end != nil {
		b.edge(end, b.g.exit)
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) newJoin(kind joinKind, pos token.Pos) *cfgBlock {
	blk := b.newBlock()
	blk.join = kind
	blk.joinPos = pos
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// walk builds the statement list into cur; it returns the block control
// falls out of, or nil if every path terminates. Statements after a
// terminator are unreachable and skipped, matching the pre-CFG walker —
// except labels, which must still be registered because a goto above
// the terminator may target them.
func (b *cfgBuilder) walk(stmts []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range stmts {
		if cur == nil {
			if ls, ok := s.(*ast.LabeledStmt); ok {
				cur = b.labeled(ls, nil)
			}
			continue
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	if b.opts.collapse != nil && b.opts.collapse[s] {
		cur.nodes = append(cur.nodes, cfgNode{stmt: s})
		return cur
	}
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok && b.opts.isPanic != nil && b.opts.isPanic(call) {
			cur.nodes = append(cur.nodes, cfgNode{stmt: s})
			cur.panics = true
			return nil
		}
		cur.nodes = append(cur.nodes, cfgNode{stmt: s})
	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, cfgNode{stmt: s})
		cur.ret = x
		return nil
	case *ast.BranchStmt:
		return b.branch(x, cur)
	case *ast.BlockStmt:
		return b.walk(x.List, cur)
	case *ast.LabeledStmt:
		return b.labeled(x, cur)
	case *ast.IfStmt:
		return b.ifStmt(x, cur)
	case *ast.ForStmt:
		return b.forStmt(x, cur, "")
	case *ast.RangeStmt:
		return b.rangeStmt(x, cur, "")
	case *ast.SwitchStmt:
		return b.switchStmt(x.Init, x.Tag, x.Body, x.Pos(), cur, "")
	case *ast.TypeSwitchStmt:
		return b.switchStmt(x.Init, nil, x.Body, x.Pos(), cur, "")
	case *ast.SelectStmt:
		return b.selectStmt(x, cur, "")
	default:
		// Assign, IncDec, Decl, Defer, Send, Go, Empty: straight-line.
		cur.nodes = append(cur.nodes, cfgNode{stmt: s})
	}
	return cur
}

func (b *cfgBuilder) branch(x *ast.BranchStmt, cur *cfgBlock) *cfgBlock {
	label := ""
	if x.Label != nil {
		label = x.Label.Name
	}
	switch x.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			lc := b.loops[i]
			if label == "" || lc.label == label {
				b.edge(cur, lc.breakTo)
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			lc := b.loops[i]
			if lc.continueTo != nil && (label == "" || lc.label == label) {
				b.edge(cur, lc.continueTo)
				return nil
			}
		}
	case token.GOTO:
		if target, ok := b.labelBlocks[label]; ok {
			b.edge(cur, target)
		} else {
			b.pendingGotos[label] = append(b.pendingGotos[label], cur)
		}
		return nil
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(cur, b.fallthroughTo)
		}
		return nil
	}
	// Unresolvable break/continue (malformed source): end the path.
	return nil
}

// labeled builds a labeled statement; cur may be nil when the label
// itself sits after a terminator and is only enterable through gotos.
func (b *cfgBuilder) labeled(x *ast.LabeledStmt, cur *cfgBlock) *cfgBlock {
	target := b.newBlock()
	if cur != nil {
		b.edge(cur, target)
	}
	b.labelBlocks[x.Label.Name] = target
	for _, from := range b.pendingGotos[x.Label.Name] {
		b.edge(from, target)
	}
	delete(b.pendingGotos, x.Label.Name)
	switch inner := x.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(inner, target, x.Label.Name)
	case *ast.RangeStmt:
		return b.rangeStmt(inner, target, x.Label.Name)
	case *ast.SwitchStmt:
		return b.switchStmt(inner.Init, inner.Tag, inner.Body, inner.Pos(), target, x.Label.Name)
	case *ast.TypeSwitchStmt:
		return b.switchStmt(inner.Init, nil, inner.Body, inner.Pos(), target, x.Label.Name)
	case *ast.SelectStmt:
		return b.selectStmt(inner, target, x.Label.Name)
	}
	return b.stmt(x.Stmt, target)
}

func (b *cfgBuilder) ifStmt(x *ast.IfStmt, cur *cfgBlock) *cfgBlock {
	if x.Init != nil {
		cur = b.stmt(x.Init, cur)
		if cur == nil {
			return nil
		}
	}
	tryCall, _ := x.Cond.(*ast.CallExpr)
	isTry := tryCall != nil && b.opts.tryLock != nil && b.opts.tryLock(tryCall)
	if !isTry {
		cur.nodes = append(cur.nodes, cfgNode{expr: x.Cond})
	}
	join := b.newJoin(joinBranch, x.Pos())
	thenB := b.newBlock()
	b.edge(cur, thenB)
	if isTry {
		thenB.nodes = append(thenB.nodes, cfgNode{acquire: tryCall})
	}
	// The then branch is built (and linked to the join) first: on a
	// merge conflict, solvers adopt the state of preds[0], matching the
	// pre-CFG walker which continued with the then-branch state.
	if end := b.walk(x.Body.List, thenB); end != nil {
		b.edge(end, join)
	}
	if x.Else == nil {
		b.edge(cur, join)
	} else {
		elseB := b.newBlock()
		b.edge(cur, elseB)
		if end := b.stmt(x.Else, elseB); end != nil {
			b.edge(end, join)
		}
	}
	if len(join.preds) == 0 {
		return nil
	}
	return join
}

func (b *cfgBuilder) forStmt(x *ast.ForStmt, cur *cfgBlock, label string) *cfgBlock {
	if x.Init != nil {
		cur = b.stmt(x.Init, cur)
		if cur == nil {
			return nil
		}
	}
	head := b.newJoin(joinLoop, x.Pos())
	b.edge(cur, head)
	if x.Cond != nil {
		head.nodes = append(head.nodes, cfgNode{expr: x.Cond})
	}
	exit := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	if x.Cond != nil {
		b.edge(head, exit)
	}
	var post *cfgBlock
	continueTo := head
	if x.Post != nil {
		post = b.newBlock()
		continueTo = post
	}
	b.loops = append(b.loops, &loopCtx{label: label, breakTo: exit, continueTo: continueTo})
	end := b.walk(x.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	if end != nil {
		b.edge(end, continueTo)
	}
	if post != nil {
		if len(post.preds) > 0 {
			b.stmt(x.Post, post)
			b.edge(post, head)
		}
	}
	if len(exit.preds) == 0 {
		return nil // for{} with no break: code after it is unreachable
	}
	return exit
}

func (b *cfgBuilder) rangeStmt(x *ast.RangeStmt, cur *cfgBlock, label string) *cfgBlock {
	cur.nodes = append(cur.nodes, cfgNode{expr: x.X})
	head := b.newJoin(joinLoop, x.Pos())
	b.edge(cur, head)
	exit := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, exit)
	b.loops = append(b.loops, &loopCtx{label: label, breakTo: exit, continueTo: head})
	end := b.walk(x.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	if end != nil {
		b.edge(end, head)
	}
	return exit
}

// switchStmt builds value and type switches: tag is nil for the latter.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, pos token.Pos, cur *cfgBlock, label string) *cfgBlock {
	if init != nil {
		cur = b.stmt(init, cur)
		if cur == nil {
			return nil
		}
	}
	if tag != nil {
		cur.nodes = append(cur.nodes, cfgNode{expr: tag})
	}
	join := b.newJoin(joinSwitch, pos)
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	// The no-case edge is linked first so preds[0] carries the entry
	// state: the pre-CFG walker left the state unchanged after a switch.
	if !hasDefault {
		b.edge(cur, join)
	}
	caseBlocks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		caseBlocks[i] = b.newBlock()
	}
	for i, cc := range clauses {
		// Case expressions evaluate before any body runs; type-switch
		// case lists are types, not value expressions, and tag==nil
		// distinguishes them.
		if tag != nil {
			for _, e := range cc.List {
				cur.nodes = append(cur.nodes, cfgNode{expr: e})
			}
		}
		b.edge(cur, caseBlocks[i])
		savedFT := b.fallthroughTo
		if i+1 < len(caseBlocks) {
			b.fallthroughTo = caseBlocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.loops = append(b.loops, &loopCtx{label: label, breakTo: join})
		end := b.walk(cc.Body, caseBlocks[i])
		b.loops = b.loops[:len(b.loops)-1]
		b.fallthroughTo = savedFT
		if end != nil {
			b.edge(end, join)
		}
	}
	if len(join.preds) == 0 {
		return nil
	}
	return join
}

func (b *cfgBuilder) selectStmt(x *ast.SelectStmt, cur *cfgBlock, label string) *cfgBlock {
	cur.nodes = append(cur.nodes, cfgNode{sel: x})
	join := b.newJoin(joinSelect, x.Pos())
	hasDefault := false
	for _, c := range x.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		// A default-less select still parks the goroutine; the entry
		// edge keeps the pre-CFG after-state semantics at the join.
		b.edge(cur, join)
	}
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		clause := b.newBlock()
		b.edge(cur, clause)
		if cc.Comm != nil {
			clause.nodes = append(clause.nodes, cfgNode{stmt: cc.Comm})
		}
		b.loops = append(b.loops, &loopCtx{label: label, breakTo: join})
		end := b.walk(cc.Body, clause)
		b.loops = b.loops[:len(b.loops)-1]
		if end != nil {
			b.edge(end, join)
		}
	}
	if len(join.preds) == 0 {
		return nil
	}
	return join
}
