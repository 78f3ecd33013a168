package controller

// Count-based gates on the steady-state paths: what a re-optimization, an
// Observe, a removal and an emission may allocate, stated as allocation
// counts against a base measured in the same process (README: count gates
// are tier-1 tests, timing gates are not ported). The fixture is 100
// classes over GEANT, placed greedily.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

const hundredClasses = 100

// hundredClassFixture installs 100 classes on GEANT from a greedy
// placement and returns the controller with the problem and placement it
// was built from. Identical on every call.
func hundredClassFixture(tb testing.TB) (*Controller, *core.Problem, *core.Placement) {
	tb.Helper()
	g := topology.GEANT()
	rng := rand.New(rand.NewSource(11))
	chains := []policy.Chain{
		{policy.Firewall, policy.IDS, policy.Proxy},
		{policy.Firewall, policy.IDS},
		{policy.Firewall, policy.Proxy},
		{policy.IDS},
		{policy.Firewall},
	}
	var classes []core.Class
	for len(classes) < hundredClasses {
		src := topology.NodeID(rng.Intn(g.NumNodes()))
		dst := topology.NodeID(rng.Intn(g.NumNodes()))
		path, err := g.ShortestPath(src, dst)
		if src == dst || err != nil || len(path) < 2 {
			continue
		}
		classes = append(classes, core.Class{
			ID:       core.ClassID(len(classes)),
			Path:     path,
			Chain:    chains[rng.Intn(len(chains))],
			RateMbps: 20 + rng.Float64()*60,
		})
	}
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	prob := &core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}
	pl, err := core.SolveGreedy(prob)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		tb.Fatal(err)
	}
	return c, prob, pl
}

// withRates copies the problem with every rate multiplied by f.
func withRates(prob *core.Problem, f float64) *core.Problem {
	out := *prob
	out.Classes = scaleClasses(prob.Classes, f)
	return &out
}

// TestRateOnlyReoptimizeAllocs: when only rates drift, ReOptimize may
// allocate, per class, the split comparison (sameSplit, measured here as
// the base) and the three objects of the replacement Assignment — itself,
// Weights and Base — and beyond that a number of allocations that does not
// depend on the class count: the report, the transaction with its staging
// slice, pre-image map and order, the placement membership map, the
// portion pre-images of the 64 instances, and one sorted key list per
// hosting switch in provisionTo. Measured 46; the gate is 56. A staging
// slice and pre-image map that grow while classes are staged made it 67.
func TestRateOnlyReoptimizeAllocs(t *testing.T) {
	c, prob, pl := hundredClassFixture(t)
	perClass := 0.0
	for _, cl := range prob.Classes {
		old, _ := c.assign.get(cl.ID)
		perClass += 3 + testing.AllocsPerRun(1, func() {
			if same, err := c.sameSplit(old, cl, pl.Dist[cl.ID]); err != nil || !same {
				t.Fatalf("class %d: sameSplit = %v, %v", cl.ID, same, err)
			}
		})
	}
	// Alternate between two rate levels 20 % apart: every pass is
	// rate-only for every class.
	probs := []*core.Problem{withRates(prob, 1.25), prob}
	pass := 0
	total := testing.AllocsPerRun(10, func() {
		rep, err := c.ReOptimize(probs[pass%2], pl, ReoptOptions{})
		pass++
		if err != nil || rep.RateOnly != hundredClasses {
			t.Fatalf("pass %d: report %+v, err %v; want %d rate-only classes", pass, rep, err, hundredClasses)
		}
	})
	t.Logf("rate-only ReOptimize of %d classes: %.0f allocations, %.0f of them per class", hundredClasses, total, perClass)
	if fixed := total - perClass; fixed > 56 {
		t.Errorf("%.0f allocations beyond the per-class %.0f; the gate is 56", fixed, perClass)
	}
}

// TestObserveAllocsNoTransition: an Observe that handles no transition
// allocates its one load view — a map sized for the instances; the base is
// a map of that size, filled — plus five objects: the sorted view of the
// store the map is filled over, the detector ID list and its sort (two),
// and the class ID list of the rollback pass. Nothing per class, no map
// copy of the store. Measured base + 5; the gate is base + 6. A map copy
// of the store and an unsized load map made it base + 16.
func TestObserveAllocsNoTransition(t *testing.T) {
	c, _, _ := hundredClassFixture(t)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]vnf.ID, 0, len(d.detectors))
	for id := range d.detectors {
		insts = append(insts, id)
	}
	base := testing.AllocsPerRun(10, func() {
		m := make(map[vnf.ID]float64, len(insts))
		for _, id := range insts {
			m[id] = 1
		}
	})
	got := testing.AllocsPerRun(10, func() {
		if n, err := d.Observe(nil); err != nil || n != 0 {
			t.Fatalf("Observe at planned rates: %d transitions, err %v", n, err)
		}
	})
	t.Logf("Observe with no transition: %.0f allocations; a load map of %d instances is %.0f", got, len(insts), base)
	if got > base+6 {
		t.Errorf("Observe allocated %.0f, more than the load map's %.0f + 6", got, base)
	}
}

// TestRemoveCompilesNothing: committing a StageRemove derives the rule
// names it removes from the assignment. It stages no rules
// (FlowSetup.StagedRules stands still), leaves none of the class's rules
// behind, and allocates 26 objects for a class of one sub-class — the
// transaction, two batches and their undo tokens, the names, the ledger
// pre-images — where compiling the class's rules first made it 91. The
// gate is 40.
func TestRemoveCompilesNothing(t *testing.T) {
	c, prob, _ := hundredClassFixture(t)
	next := 0
	staged := metrics.FlowSetup.StagedRules.Load()
	got := testing.AllocsPerRun(20, func() {
		id := prob.Classes[next].ID
		next++
		if a, _ := c.assign.get(id); len(a.Subclasses) != 1 {
			t.Fatalf("class %d has %d sub-classes; the count is stated for one", id, len(a.Subclasses))
		}
		txn := c.Begin()
		txn.StageRemove(id)
		if err := txn.Commit(TxnOptions{}); err != nil {
			t.Fatalf("remove class %d: %v", id, err)
		}
	})
	if now := metrics.FlowSetup.StagedRules.Load(); now != staged {
		t.Errorf("removals staged %d rules", now-staged)
	}
	for _, cl := range prob.Classes[:next] {
		assertNoClassRules(t, c, cl.ID)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement after removals: %v", err)
	}
	t.Logf("StageRemove commit: %.0f allocations", got)
	if got > 40 {
		t.Errorf("a removal allocated %.0f objects; the gate is 40", got)
	}
}

// TestEmitOneBackingArrayPerTable: emission hands back exactly one batch
// per table the class touches — tables are routing, APPLE or steering
// tables of its path's switches — each filled to exactly the capacity it
// was allocated with: no BatchOp array is regrown, copied or shared, so a
// class costs as many of them as it touches tables.
func TestEmitOneBackingArrayPerTable(t *testing.T) {
	c, prob, _ := hundredClassFixture(t)
	for _, cl := range prob.Classes {
		a, _ := c.assign.get(cl.ID)
		batches, err := c.emitClassRules(a)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[tableKey]bool, len(batches))
		for _, b := range batches {
			if seen[b.key] {
				t.Fatalf("class %d: two batches for table %+v", cl.ID, b.key)
			}
			seen[b.key] = true
			if len(b.ops) == 0 || len(b.ops) != cap(b.ops) {
				t.Fatalf("class %d table %+v: %d operations in an array of %d", cl.ID, b.key, len(b.ops), cap(b.ops))
			}
		}
		if len(batches) > 3*len(cl.Path) {
			t.Fatalf("class %d: %d batches for a %d-switch path", cl.ID, len(batches), len(cl.Path))
		}
	}
}

// TestLoadsBitIdentical (ROADMAP finding 7): two controllers built from
// identical inputs report bit-identical loads — an instance's load is a
// float sum over the classes it serves, and a sum taken in map order
// differs in its last bits from run to run.
func TestLoadsBitIdentical(t *testing.T) {
	ref, _, _ := hundredClassFixture(t)
	want := ref.Loads(nil)
	shared := 0
	byInst := make(map[vnf.ID]int)
	for _, a := range ref.assign.sorted() {
		for _, row := range a.Instances {
			for _, id := range row {
				byInst[id]++
			}
		}
	}
	for _, n := range byInst {
		if n >= 3 {
			shared++
		}
	}
	if shared < 10 {
		t.Fatalf("fixture has only %d instances summing three or more shares", shared)
	}
	for run := 0; run < 5; run++ {
		c, _, _ := hundredClassFixture(t)
		for rep := 0; rep < 3; rep++ {
			got := c.Loads(nil)
			if len(got) != len(want) {
				t.Fatalf("run %d: %d instances loaded, want %d", run, len(got), len(want))
			}
			for id, w := range want {
				if g := got[id]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("run %d: load of %s = %x (%v), first build %x (%v)",
						run, id, math.Float64bits(g), g, math.Float64bits(w), w)
				}
			}
		}
	}
}
