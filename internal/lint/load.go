package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// Noalloc holds every function of the load that carries the
	// "//apple:noalloc" directive, this package's and its dependencies'
	// alike, so the noalloc analyzer can follow an annotated chain across
	// a package boundary. One map is shared by all packages of a load.
	Noalloc map[*types.Func]bool
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// parsedDir is one directory's worth of parsed files, pre-type-check.
type parsedDir struct {
	dir        string
	importPath string
	name       string
	files      []*ast.File
	imports    map[string]bool
}

// LoadModule parses and type-checks every package of the module rooted
// at root, in dependency order. Directories named testdata and
// hidden directories are skipped, and so are _test.go files. The module
// must be self-contained: imports are either standard library (resolved
// from $GOROOT source) or module-internal.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	var dirs []*parsedDir
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pd, perr := parseDir(fset, path)
		if perr != nil {
			return perr
		}
		if pd == nil {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			pd.importPath = modPath
		} else {
			pd.importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs = append(dirs, pd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted, err := topoSort(dirs, modPath)
	if err != nil {
		return nil, err
	}
	return typeCheck(fset, sorted)
}

// parseDir parses the non-test Go files of one directory; nil if none.
func parseDir(fset *token.FileSet, dir string) (*parsedDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{dir: dir, imports: make(map[string]bool)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkgName := file.Name.Name
		if pd.name == "" {
			pd.name = pkgName
		} else if pd.name != pkgName {
			return nil, fmt.Errorf("lint: %s: conflicting package names %q and %q", dir, pd.name, pkgName)
		}
		pd.files = append(pd.files, file)
		for _, imp := range file.Imports {
			pd.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(pd.files) == 0 {
		return nil, nil
	}
	return pd, nil
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(dirs []*parsedDir, modPath string) ([]*parsedDir, error) {
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].importPath < dirs[j].importPath })
	byPath := make(map[string]*parsedDir, len(dirs))
	for _, d := range dirs {
		byPath[d.importPath] = d
	}
	state := make(map[*parsedDir]int) // 0 unvisited, 1 visiting, 2 done
	var out []*parsedDir
	var visit func(d *parsedDir) error
	visit = func(d *parsedDir) error {
		switch state[d] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", d.importPath)
		case 2:
			return nil
		}
		state[d] = 1
		deps := make([]string, 0, len(d.imports))
		for imp := range d.imports {
			deps = append(deps, imp)
		}
		sort.Strings(deps)
		for _, imp := range deps {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				dep, ok := byPath[imp]
				if !ok {
					return fmt.Errorf("lint: %s imports %s, which was not found in the module", d.importPath, imp)
				}
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[d] = 2
		out = append(out, d)
		return nil
	}
	for _, d := range dirs {
		if err := visit(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moduleImporter resolves module-internal imports from the packages
// already checked this run and everything else from $GOROOT source.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.mod[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}

// typeCheck checks the packages in the given (dependency) order.
func typeCheck(fset *token.FileSet, dirs []*parsedDir) ([]*Package, error) {
	imp := &moduleImporter{
		std: importer.ForCompiler(fset, "source", nil),
		mod: make(map[string]*types.Package),
	}
	noalloc := make(map[*types.Func]bool)
	var out []*Package
	for _, pd := range dirs {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pd.importPath, fset, pd.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pd.importPath, err)
		}
		imp.mod[pd.importPath] = tpkg
		for _, file := range pd.files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && hasNoallocDirective(fd) {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						noalloc[fn] = true
					}
				}
			}
		}
		out = append(out, &Package{
			Dir:        pd.dir,
			ImportPath: pd.importPath,
			Fset:       fset,
			Files:      pd.files,
			Types:      tpkg,
			Info:       info,
			Noalloc:    noalloc,
		})
	}
	return out, nil
}
