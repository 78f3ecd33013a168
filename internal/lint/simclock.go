package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSimClock keeps the deterministic packages deterministic: the
// simulation kernel, the LP solver, and the topology/traffic/experiment
// generators must produce bit-identical Table IV/V reproductions from a
// seed, so they may not consult the wall clock (time.Now and friends)
// or the global, unseeded math/rand source. Randomness is injected as a
// seeded *rand.Rand; time comes from the sim.Simulation virtual clock.
var AnalyzerSimClock = &Analyzer{
	Name: "simclock",
	Doc:  "no wall clock and no global math/rand source inside deterministic packages (sim, lp, policy, topology, traffic, experiments, trace)",
	Run:  runSimClock,
}

// deterministicPackages names the packages whose outputs must be a pure
// function of their seeds.
var deterministicPackages = map[string]bool{
	"sim":         true,
	"lp":          true,
	"policy":      true,
	"topology":    true,
	"traffic":     true,
	"experiments": true,
	"trace":       true,
}

// wallClockFuncs are the time package entry points that read the host
// clock or block on it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandFuncs are the math/rand package-level functions backed by
// the shared global source. Constructors (New, NewSource, NewZipf) are
// fine — they are how seeded generators get built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func runSimClock(pass *Pass) {
	if !deterministicPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock inside deterministic package %q; use the sim.Simulation virtual clock or hoist timing out of this package",
						fn.Name(), pass.Pkg.Name())
				}
			case "math/rand":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"rand.%s uses the global math/rand source inside deterministic package %q; inject a seeded *rand.Rand instead",
						fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
}
