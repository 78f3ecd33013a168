// Command applelint runs the project-specific static-analysis suite
// (internal/lint) over the whole module: lockguard, guardedfield,
// callbackonce, simclock, noalloc and txnguard. It is stdlib-only — the
// module graph is loaded with go/parser + go/types and the standard
// library is resolved from $GOROOT source, so the tool needs no network
// and no third-party dependencies. In-package _test.go files and
// external test packages are not analyzed.
//
// Usage:
//
//	applelint [-list] [-report findings.txt] [-budget 30s] [dir]
//
// dir defaults to the current directory; the module root is found by
// walking upward to go.mod. -report duplicates every diagnostic (and the
// trailing summary line) into a findings file, written even when the run
// is clean, so CI can archive it as an artifact. -budget bounds the
// wall-clock of the whole run — load plus analysis — and fails the run
// when exceeded, keeping the lint gate's latency an enforced contract
// rather than a hope. Exit status is 1 when any diagnostic is reported
// or the budget is exceeded, 2 on loader/usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/apple-nfv/apple/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("applelint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available analyzers and exit")
	reportPath := fs.String("report", "", "also write findings to this file (created even when clean)")
	budget := fs.Duration("budget", 0, "fail when the whole run exceeds this wall-clock budget (0 disables)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	start := time.Now()
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var report strings.Builder
	found := 0
	for _, pkg := range pkgs {
		for _, d := range lint.RunPackage(pkg, analyzers) {
			line := d.String()
			fmt.Println(line)
			report.WriteString(line)
			report.WriteByte('\n')
			found++
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(&report, "applelint: %d finding(s), %d analyzer(s), %d package(s), %s\n",
		found, len(analyzers), len(pkgs), elapsed.Round(time.Millisecond))
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	status := 0
	if found > 0 {
		fmt.Fprintf(os.Stderr, "applelint: %d finding(s)\n", found)
		status = 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "applelint: run took %s, over the %s budget\n",
			elapsed.Round(time.Millisecond), *budget)
		status = 1
	}
	return status
}
