package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// goldenAnalyzers maps each fixture directory under testdata/src to the
// analyzers exercised against it. The suppress fixture runs the
// analyzers its directives reference so both the silenced and surviving
// diagnostics are observable.
var goldenAnalyzers = map[string][]*Analyzer{
	"lockguard":    {AnalyzerLockguard},
	"guardedfield": {AnalyzerGuardedField},
	"callbackonce": {AnalyzerCallbackOnce},
	"simclock":     {AnalyzerSimClock},
	"noalloc":      {AnalyzerNoAlloc},
	"txnguard":     {AnalyzerTxnGuard},
	"suppress":     {AnalyzerLockguard, AnalyzerGuardedField, AnalyzerSimClock},
}

// wantRe extracts expectation patterns from fixture comments: a
// comment containing `want "substring"` expects a diagnostic on that
// comment's line whose message contains the substring.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// TestGolden runs each analyzer over its fixture package and requires
// an exact correspondence between diagnostics and want comments.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		analyzers, ok := goldenAnalyzers[name]
		if !ok {
			t.Errorf("fixture directory %q has no goldenAnalyzers entry", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			runGolden(t, filepath.Join("testdata", "src", name), analyzers)
		})
	}
	for name := range goldenAnalyzers {
		if !seen[name] {
			t.Errorf("goldenAnalyzers names %q but testdata/src has no such fixture", name)
		}
	}
}

// loadFixture parses and type-checks one fixture directory as a package
// with a synthetic import path. Fixtures may import only the standard
// library.
func loadFixture(dir string) (*Package, error) {
	fset := token.NewFileSet()
	pd, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if pd == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pd.importPath = "fixture/" + filepath.Base(dir)
	pkgs, err := typeCheck(fset, []*parsedDir{pd})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

func runGolden(t *testing.T, dir string, analyzers []*Analyzer) {
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pkg, analyzers)
	wants := collectWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no want comments", dir)
	}

	for _, d := range diags {
		if !claimWant(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

// collectWants scans every comment of the fixture for want patterns.
func collectWants(pkg *Package) []*wantExpect {
	var wants []*wantExpect
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantExpect{
						file: pos.Filename,
						line: pos.Line,
						re:   regexp.MustCompile(regexp.QuoteMeta(m[1])),
					})
				}
			}
		}
	}
	return wants
}

// claimWant marks the first unclaimed expectation matching the
// diagnostic and reports whether one existed.
func claimWant(wants []*wantExpect, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestModuleLintsClean is the integration gate: the entire repository
// must pass all six analyzers with zero diagnostics, so any newly
// introduced violation fails go test as well as make lint.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow; skipped with -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader is missing the module", len(pkgs), root)
	}
	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg, Analyzers()) {
			t.Errorf("%s", d)
		}
	}
}

// TestDiagnosticString pins the canonical rendering other tooling greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "lockguard", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [lockguard] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
