package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerGuardedField enforces the repo's field-annotation convention:
//
//	// guarded by <mu>
//	    The field may only be read or written while the sibling mutex
//	    field <mu> is held (write lock for writes; RLock suffices for
//	    reads). Methods whose name ends in "Locked" are exempt — their
//	    documented contract is that the caller already holds the lock.
//
//	// confined to the simulation loop
//	    The field belongs to single-threaded orchestration state driven
//	    by the sim event loop; it may not be touched from a spawned
//	    goroutine. The check is lexical (direct accesses only), which is
//	    exactly the level a reviewer can audit.
//
// The annotation may appear anywhere in the field's doc comment or
// trailing line comment, in any letter case and wrapped across lines.
//
// Fresh locals are exempt from the lock requirement: when every value a
// local ever holds was allocated in the function itself (a composite
// literal, &composite, or new), no other goroutine can have a reference
// yet, so constructors may initialize guarded fields without the mutex
// and without a suppression.
var AnalyzerGuardedField = &Analyzer{
	Name: "guardedfield",
	Doc:  "fields annotated 'guarded by <mu>' are only touched with the mutex held; 'confined to the simulation loop' fields never leak into goroutines",
	Run:  runGuardedField,
}

var (
	guardedRe  = regexp.MustCompile(`(?i)guarded\s+by\s+(\w+)`)
	confinedRe = regexp.MustCompile(`(?i)confined\s+to\s+the\s+simulation\s+loop`)
)

// guardInfo is the parsed annotation of one struct field.
type guardInfo struct {
	structName string
	fieldName  string
	mu         string // sibling mutex field name; "" when confined-only
	confined   bool
}

func runGuardedField(pass *Pass) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	facts := pass.lockFactsFor()
	for decl, f := range facts {
		callerHolds := strings.HasSuffix(decl.Name.Name, "Locked")
		fresh := freshLocals(pass, decl)
		for _, acc := range f.accesses {
			g, ok := guards[acc.field]
			if !ok {
				continue
			}
			if g.confined {
				if acc.async {
					pass.Reportf(acc.sel.Sel.Pos(),
						"%s.%s is confined to the simulation loop but accessed from a goroutine",
						g.structName, g.fieldName)
				}
				continue
			}
			if callerHolds {
				continue
			}
			if v := rootIdentVar(pass, acc.sel.X); v != nil && fresh[v] {
				continue // unpublished object: no other goroutine can race
			}
			base := types.ExprString(acc.sel.X)
			want := base + "." + g.mu
			var held *heldLock
			for i := range acc.held {
				if acc.held[i].key == want {
					held = &acc.held[i]
					break
				}
			}
			if held == nil {
				verb := "read"
				if acc.write {
					verb = "written"
				}
				pass.Reportf(acc.sel.Sel.Pos(), "%s.%s is %s without holding %s (field is guarded by %s)",
					g.structName, g.fieldName, verb, want, g.mu)
				continue
			}
			if acc.write && held.rlock {
				pass.Reportf(acc.sel.Sel.Pos(), "%s.%s is written while %s is only read-locked",
					g.structName, g.fieldName, want)
			}
		}
	}
}

// collectGuards parses the annotations off every struct declaration and
// validates that 'guarded by' names a sibling mutex field.
func collectGuards(pass *Pass) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
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
			mutexFields := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if isMutexVar(pass.Info.Defs[name]) {
						mutexFields[name.Name] = true
					}
				}
			}
			for _, fld := range st.Fields.List {
				text := fieldCommentText(fld)
				if text == "" {
					continue
				}
				m := guardedRe.FindStringSubmatch(text)
				confined := confinedRe.MatchString(text)
				if m == nil && !confined {
					continue
				}
				var mu string
				if m != nil {
					mu = m[1]
					if !mutexFields[mu] {
						pass.Reportf(fld.Pos(),
							"'guarded by %s' annotation does not name a sibling sync.Mutex/RWMutex field of %s", mu, ts.Name.Name)
						continue
					}
				}
				for _, name := range fld.Names {
					obj, ok := pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					guards[obj] = guardInfo{
						structName: ts.Name.Name,
						fieldName:  name.Name,
						mu:         mu,
						confined:   confined && m == nil,
					}
				}
			}
			return true
		})
	}
	return guards
}

// freshLocals returns the function's locals whose every assignment is
// an allocation performed in the function itself: a composite literal,
// the address of one, or builtin new. Such a value is unpublished for
// the whole function body, so guarded-field accesses through it cannot
// race.
func freshLocals(pass *Pass, decl *ast.FuncDecl) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	poisoned := make(map[*types.Var]bool)
	mark := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		if rhs != nil && isAllocExpr(pass, rhs) && !poisoned[v] {
			fresh[v] = true
		} else {
			poisoned[v] = true
			delete(fresh, v)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(x.Lhs) == len(x.Rhs) {
					rhs = x.Rhs[i]
				}
				mark(id, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				var rhs ast.Expr
				if i < len(x.Values) {
					rhs = x.Values[i]
				} else if len(x.Values) == 0 {
					continue // var with no initializer: zero value, neutral
				}
				mark(name, rhs)
			}
		}
		return true
	})
	return fresh
}

// isAllocExpr matches the expressions that produce a brand-new object.
func isAllocExpr(pass *Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// rootIdentVar resolves the base identifier of a field-access chain
// (st.shards[i].m -> st) to its variable, nil for non-ident bases.
func rootIdentVar(pass *Pass, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := pass.Info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func fieldCommentText(fld *ast.Field) string {
	var parts []string
	if fld.Doc != nil {
		parts = append(parts, fld.Doc.Text())
	}
	if fld.Comment != nil {
		parts = append(parts, fld.Comment.Text())
	}
	return strings.Join(parts, " ")
}

func isMutexVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	named, ok := deref(v.Type()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	n := named.Obj().Name()
	return n == "Mutex" || n == "RWMutex"
}
