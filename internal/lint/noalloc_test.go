package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoallocAcrossPackages: an annotated function may call an annotated
// function of another package of the module, and only that. Fixture
// packages import nothing but the standard library, so this one is a
// two-package module written to a temporary directory.
func TestNoallocAcrossPackages(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"leaf/leaf.go": `package leaf

// Walk is proven allocation-free.
//
//apple:noalloc
func Walk(x int) int { return x + 1 }

// Build makes no such promise.
func Build(x int) []int { return make([]int, x) }
`,
		"caller/caller.go": `package caller

import "fixture/leaf"

//apple:noalloc
func Hot(x int) int {
	return leaf.Walk(x) + len(leaf.Build(x))
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, RunPackage(pkg, []*Analyzer{AnalyzerNoAlloc})...)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "call to Build in noalloc function Hot") {
		t.Fatalf("want one finding, for the call to leaf.Build; got %v", diags)
	}
}
