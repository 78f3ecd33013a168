package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncBody parses a function body for CFG construction. The
// builder is purely syntactic, so the snippets need not type-check.
func parseFuncBody(t *testing.T, body string) []ast.Stmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "body.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body.List
}

// cfgShape summarizes the reachable part of a graph for comparison.
type cfgShape struct {
	exitReachable bool
	returns       int              // reachable blocks ending in return
	defers        int              // reachable defer-statement nodes
	selects       int              // reachable select marker nodes
	joins         map[joinKind]int // reachable join blocks by kind
}

func shapeOf(g *cfg) cfgShape {
	s := cfgShape{joins: make(map[joinKind]int)}
	for _, blk := range g.reachable() {
		if blk == g.exit {
			s.exitReachable = true
		}
		if blk.ret != nil {
			s.returns++
		}
		if blk.join != joinNone {
			s.joins[blk.join]++
		}
		for _, n := range blk.nodes {
			if _, ok := n.stmt.(*ast.DeferStmt); ok {
				s.defers++
			}
			if n.sel != nil {
				s.selects++
			}
		}
	}
	return s
}

func TestBuildCFG(t *testing.T) {
	cases := []struct {
		name string
		body string
		want cfgShape
	}{
		{
			name: "straight line",
			body: `x := 1
				_ = x`,
			want: cfgShape{exitReachable: true, joins: map[joinKind]int{}},
		},
		{
			name: "defer stays on the straight-line path",
			body: `defer cleanup()
				work()`,
			want: cfgShape{exitReachable: true, defers: 1, joins: map[joinKind]int{}},
		},
		{
			name: "if else with both branches returning",
			body: `if cond {
					return
				} else {
					return
				}`,
			want: cfgShape{returns: 2, joins: map[joinKind]int{}},
		},
		{
			name: "if without else joins",
			body: `if cond {
					work()
				}
				after()`,
			want: cfgShape{exitReachable: true, joins: map[joinKind]int{joinBranch: 1}},
		},
		{
			name: "labeled break escapes both loops",
			body: `outer:
				for {
					for {
						break outer
					}
				}
				after()`,
			want: cfgShape{exitReachable: true, joins: map[joinKind]int{joinLoop: 2}},
		},
		{
			name: "unlabeled break only escapes the inner loop",
			body: `for {
					for {
						break
					}
				}
				after()`,
			want: cfgShape{joins: map[joinKind]int{joinLoop: 2}},
		},
		{
			name: "infinite loop cuts the exit",
			body: `for {
					work()
				}
				after()`,
			want: cfgShape{joins: map[joinKind]int{joinLoop: 1}},
		},
		{
			name: "type switch with a returning case",
			body: `switch v := y.(type) {
				case int:
					return
				case string:
					work(v)
				}
				after()`,
			want: cfgShape{exitReachable: true, returns: 1, joins: map[joinKind]int{joinSwitch: 1}},
		},
		{
			name: "value switch with default covers every path",
			body: `switch tag {
				case 1:
					return
				default:
					return
				}`,
			want: cfgShape{returns: 2, joins: map[joinKind]int{}},
		},
		{
			name: "select joins its clauses",
			body: `select {
				case <-ch:
					work()
				case ch2 <- 1:
					other()
				}
				after()`,
			want: cfgShape{exitReachable: true, selects: 1, joins: map[joinKind]int{joinSelect: 1}},
		},
		{
			name: "forward goto skips straight-line code",
			body: `goto done
				unreachable()
			done:
				after()`,
			want: cfgShape{exitReachable: true, joins: map[joinKind]int{}},
		},
		{
			name: "range loop always reaches its exit",
			body: `for _, v := range xs {
					work(v)
				}
				after()`,
			want: cfgShape{exitReachable: true, joins: map[joinKind]int{joinLoop: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildCFG(parseFuncBody(t, tc.body), cfgOptions{})
			got := shapeOf(g)
			if got.exitReachable != tc.want.exitReachable {
				t.Errorf("exitReachable = %v, want %v", got.exitReachable, tc.want.exitReachable)
			}
			if got.returns != tc.want.returns {
				t.Errorf("returns = %d, want %d", got.returns, tc.want.returns)
			}
			if got.defers != tc.want.defers {
				t.Errorf("defers = %d, want %d", got.defers, tc.want.defers)
			}
			if got.selects != tc.want.selects {
				t.Errorf("selects = %d, want %d", got.selects, tc.want.selects)
			}
			for k, n := range tc.want.joins {
				if got.joins[k] != n {
					t.Errorf("joins[%d] = %d, want %d", k, got.joins[k], n)
				}
			}
			for k, n := range got.joins {
				if tc.want.joins[k] == 0 && n > 0 {
					t.Errorf("unexpected join kind %d (count %d)", k, n)
				}
			}
		})
	}
}
