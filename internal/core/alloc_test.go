package core_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/traffic"
)

// measure returns the heap allocations and bytes f makes: the fewest of
// each over three calls. The counters are process-wide, so a call can
// also count what the runtime or another package's leftovers allocate
// meanwhile; f's own count is the same on every call, and the fewest is
// the one least disturbed.
func measure(f func()) (allocs, bytes uint64) {
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// geantMean is GEANT's 24-snapshot scenario and its mean matrix, the
// problem paper_lifecycle builds and solves.
func geantMean(t *testing.T) (*experiments.Scenario, *traffic.Matrix) {
	t.Helper()
	sc, err := experiments.GEANT(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := traffic.Mean(sc.Series)
	if err != nil {
		t.Fatal(err)
	}
	return sc, mean
}

// TestBuildProblemAllocs: building GEANT's 24-snapshot mean problem
// makes at most 185 allocations: 173 measured. Each source's shortest-path
// tree is built once and routes all its classes; with a fresh Dijkstra per
// class (scratch mutation: ShortestPath in BuildProblem's loop) it takes
// 306, and it took 461 while ShortestPath also built each path reversed
// and copied it. The OD pairs and the classes are counted before their
// slices are made (grown by append, they took 476 against those 461).
// What remains is per class: its route and its chain.
func TestBuildProblemAllocs(t *testing.T) {
	const limit = 185
	sc, mean := geantMean(t)
	gen, err := policy.NewGenerator(sc.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prob *core.Problem
	allocs, _ := measure(func() {
		prob, err = core.BuildProblem(sc.Graph, mean, gen, sc.Avail,
			core.BuildOptions{MinRateMbps: sc.MinRateMbps, MaxClasses: sc.MaxClasses})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d classes: %d allocations", len(prob.Classes), allocs)
	if allocs > limit {
		t.Errorf("BuildProblem made %d allocations for %d classes; the limit is %d", allocs, len(prob.Classes), limit)
	}
}

// TestSolveBytes: Engine.Solve on GEANT's 24-snapshot mean problem, as
// paper_lifecycle compiles it, allocates at most 392 000 bytes in 540
// objects: 373 480 in 514 measured. The model stores no names (core's
// model names its columns and rows on demand), the solver makes its
// model-sized arrays at their size and its cold dual run prices with the
// costs themselves; with a formatted name stored per column and row, a
// quarter of headroom on those arrays and a second cost vector it took
// 448 456 bytes in 1 504 objects. The cold solve starts from the slack
// basis with the dual simplex, with no artificial columns; solved by the
// two-phase method that start replaced, it took 560 776 bytes. The model
// streams its rows into one flat term store that the solver reads in
// place; with a []Term per row copied into the model and again into the
// solver's row store (scratch mutation: lp's model.go and store.go and
// core's model.go as they were) it took 725 672 under the two-phase
// method.
func TestSolveBytes(t *testing.T) {
	const limit, objects = 392_000, 540
	if raceDetector {
		t.Skip("the race detector allocates beside the solve")
	}
	sc, mean := geantMean(t)
	prob, err := sc.Problem(mean)
	if err != nil {
		t.Fatal(err)
	}
	h, tenants, err := experiments.ScenarioHierarchy(prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ApplyHierarchy(prob, h, tenants); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.EngineOptions{})
	defer core.SuspendObserver()()
	allocs, bytes := measure(func() {
		_, err = eng.Solve(prob)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d classes: %d bytes in %d objects", len(prob.Classes), bytes, allocs)
	if bytes > limit {
		t.Errorf("Engine.Solve allocated %d bytes; the ceiling is %d", bytes, limit)
	}
	if allocs > objects {
		t.Errorf("Engine.Solve allocated %d objects; the ceiling is %d", allocs, objects)
	}
}
