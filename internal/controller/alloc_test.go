package controller

// Count-based gates on the steady-state paths: what a re-optimization, an
// Observe, a removal and an emission may allocate, stated as allocation
// counts against a base measured in the same process (README: count gates
// are tier-1 tests, timing gates are not ported). The fixture is 100
// classes over GEANT, placed greedily.

import (
	"fmt"
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

// TestRateOnlyReoptimizeAllocs: when only rates drift, the split
// comparison (sameSplit) allocates nothing — it streams the capacity
// expansion of a coupling computed in controller-owned scratch against
// the installed sub-classes — and a rate-only class allocates one object:
// its replacement Assignment, which shares the sub-class records and
// carries a new generation number. Beyond those, ReOptimize allocates a
// number of objects that does not depend on the class count: the report,
// the transaction's refresh list, pre-image map and order — each more than
// the spare buffer set keeps (scratchCap entries), so made afresh on every
// pass — and one sorted key list per hosting switch in provisionTo.
// Measured 31; the gate is 31. A pre-image of each of the 64 instances'
// portion entries, before the ledger followed the class records, made it
// 42. Telling generations apart by a fresh Base array made it two a class;
// materialising the sub-classes in sameSplit (six objects a class),
// copying Weights on refresh and staging whole classes in a transaction
// sized for every class made it 945 for the 100 classes, 46 of them
// beyond nine a class.
func TestRateOnlyReoptimizeAllocs(t *testing.T) {
	c, prob, pl := hundredClassFixture(t)
	for _, cl := range prob.Classes {
		old, _ := c.assign.get(cl.ID)
		if n := testing.AllocsPerRun(1, func() {
			if same, err := c.sameSplit(old, cl, pl.Dist[cl.ID]); err != nil || !same {
				t.Fatalf("class %d: sameSplit = %v, %v", cl.ID, same, err)
			}
		}); n != 0 {
			t.Errorf("class %d: sameSplit allocated %.0f objects; the gate is 0", cl.ID, n)
		}
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
	const perClass = 1
	fixed := total - perClass*hundredClasses
	t.Logf("rate-only ReOptimize of %d classes: %.0f allocations, %.0f beyond %d a class", hundredClasses, total, fixed, perClass)
	if fixed > 31 {
		t.Errorf("%.0f allocations beyond %d a class; the gate is 31", fixed, perClass)
	}
}

// TestBeginAllocatesNothing: Begin hands the controller's spare buffer set
// to the transaction and is small enough to inline, so a transaction that
// ends where it began lives on its caller's stack and allocates nothing.
// A Begin too large to inline puts every RuleTxn on the heap.
func TestBeginAllocatesNothing(t *testing.T) {
	c, _, _ := hundredClassFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		txn := c.Begin()
		txn.StageRemove(0)
		txn.release()
	}); n != 0 {
		t.Errorf("Begin, one staged delta and release allocated %.0f objects; the gate is 0", n)
	}
}

// TestObserveAllocsNoTransition: an Observe that handles no transition
// allocates its one load view — a map sized for the instances; the base is
// a map of that size, filled, whose header stays on the stack, so the load
// map is the base + 1 — plus three objects: the sorted view of the store
// the map is filled over, the pooled-instance list the detectors are read
// in, and the class ID list of the rollback pass. Nothing per class or per
// instance, no map copy of the store. Measured base + 4; the gate is
// base + 5. A detector map beside the pool, with its ID list sorted
// through sort.Slice, made it base + 6; a map copy of the store and an
// unsized load map base + 16.
func TestObserveAllocsNoTransition(t *testing.T) {
	c, _, _ := hundredClassFixture(t)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	insts := c.pooledByID()
	base := testing.AllocsPerRun(10, func() {
		m := make(map[vnf.ID]float64, len(insts))
		for _, inst := range insts {
			m[inst.ID()] = 1
		}
	})
	got := testing.AllocsPerRun(10, func() {
		if n, err := d.Observe(nil); err != nil || n != 0 {
			t.Fatalf("Observe at planned rates: %d transitions, err %v", n, err)
		}
	})
	t.Logf("Observe with no transition: %.0f allocations; a load map of %d instances is %.0f", got, len(insts), base)
	if got > base+5 {
		t.Errorf("Observe allocated %.0f, more than the load map's %.0f + 5", got, base)
	}
}

// TestRemoveCompilesNothing: committing a StageRemove derives the rule
// names it removes from the assignment. It stages no rules
// (FlowSetup.StagedRules stands still) and leaves none of the class's
// rules behind. Its batches, undo list and ledger pre-images live in the
// spare buffer set and the step buffers. Two kinds of removal of a class of
// one sub-class are gated apart, eleven of each (the fixture has
// fewer than 21 of one sub-class whose routes others hold):
//   - one whose routes other classes still hold allocates 16 objects (19
//     under the race detector), as the same removals did while routes
//     stayed: in the two flow tables it edits (their undo tokens and
//     copied snapshots) and the rule names. The gate is 22. The fixture's
//     first 20 removals measured 15 (20) while routes stayed; a
//     transaction that allocated its own buffers made it 27, and
//     compiling the class's rules first 91.
//   - one that retires routes, as 16 of the fixture's first 20 do, edits
//     a routing table for each and allocates 25 (30 under the race
//     detector), where the same removals took 15 (19) while routes stayed.
//     The gate is 32, the race figure plus about 5 %.
func TestRemoveCompilesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retires bool
		gate    float64
	}{{"routes stay", false, 22}, {"routes retire", true, 32}} {
		t.Run(tc.name, func(t *testing.T) {
			c, prob, _ := hundredClassFixture(t)
			next := 0
			removed := make([]core.ClassID, 0, 11)
			// pick returns the next class of one sub-class whose removal
			// retires routes or not, as the case says.
			pick := func() core.ClassID {
				for ; next < len(prob.Classes); next++ {
					a, _ := c.assign.get(prob.Classes[next].ID)
					if a.NumSubclasses() == 1 && retiresRoutes(c, a) == tc.retires {
						next++
						return a.Class.ID
					}
				}
				t.Fatalf("no class left whose removal retires routes: %v", tc.retires)
				return 0
			}
			staged := metrics.FlowSetup.StagedRules.Load()
			got := testing.AllocsPerRun(10, func() {
				id := pick()
				removed = append(removed, id)
				txn := c.Begin()
				txn.StageRemove(id)
				if err := txn.Commit(TxnOptions{}); err != nil {
					t.Fatalf("remove class %d: %v", id, err)
				}
			})
			if now := metrics.FlowSetup.StagedRules.Load(); now != staged {
				t.Errorf("removals staged %d rules", now-staged)
			}
			for _, id := range removed {
				assertNoClassRules(t, c, id)
			}
			if err := c.CheckEnforcement(); err != nil {
				t.Fatalf("enforcement after removals: %v", err)
			}
			t.Logf("StageRemove commit: %.0f allocations", got)
			if got > tc.gate {
				t.Errorf("a removal allocated %.0f objects; the gate is %.0f", got, tc.gate)
			}
		})
	}
}

// retiresRoutes reports whether removing a retires a route: whether a is
// the last class crossing some switch of its path toward its destination.
func retiresRoutes(c *Controller, a *Assignment) bool {
	dst := a.Class.Path[len(a.Class.Path)-1]
	for _, v := range a.Class.Path {
		if c.assign.held[v][dst].n == 1 {
			return true
		}
	}
	return false
}

// TestEmitOneBackingArrayPerTable: a class install's make and flip steps
// (makeRules and flipRules from nothing), grouped as they are applied,
// each come to exactly one batch per table the step touches — the make
// step routing and steering tables of its path's switches, the flip step
// the ingress APPLE table alone — at most 2·len(Path)+1 in all. Every
// batch is a clipped view of the step's one array (ruleSteps.group), its
// capacity its length, so none can grow into another's memory. A
// removal's retire step (retireRules, run with the class out of the store,
// as after its swap) groups the same way: one removal per host each
// sub-class visits, and one per switch whose route the class held alone.
func TestEmitOneBackingArrayPerTable(t *testing.T) {
	c, prob, _ := hundredClassFixture(t)
	// grouped groups one step and checks its layout.
	grouped := func(what string, step []tableOp) []tableBatch {
		t.Helper()
		batches := c.steps.group(step)
		seen, at := make(map[tableKey]bool, len(batches)), 0
		for _, b := range batches {
			if seen[b.key] {
				t.Fatalf("%s: two batches for table %+v", what, b.key)
			}
			seen[b.key] = true
			if len(b.ops) == 0 || len(b.ops) != cap(b.ops) || &b.ops[0] != &c.steps.ops[at] {
				t.Fatalf("%s table %+v: %d operations in an array of %d, not at offset %d of the step's",
					what, b.key, len(b.ops), cap(b.ops), at)
			}
			at += len(b.ops)
		}
		if at != len(step) {
			t.Fatalf("%s: %d operations grouped of %d", what, at, len(step))
		}
		return batches
	}
	routes := 0
	for _, cl := range prob.Classes {
		a, _ := c.assign.get(cl.ID)
		c.assign.remove(cl.ID)
		retired := c.retireRules(nil, a, nil, c.assign.routeMoves(a, nil))
		c.assign.put(cl.ID, a)
		steering := 0
		for _, b := range grouped(fmt.Sprintf("class %d retire", cl.ID), retired) {
			if b.key.dev.vswitch {
				steering++
			} else if b.key.table == TableRouting {
				routes++
			}
		}
		if steering == 0 {
			t.Fatalf("class %d: no steering removals", cl.ID)
		}
		made, err := c.makeRules(nil, nil, a, allFresh(cl.Path))
		if err != nil {
			t.Fatal(err)
		}
		flip, err := c.flipRules(nil, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		batches := len(grouped(fmt.Sprintf("class %d flip", cl.ID), flip))
		if batches != 1 || flip[0].key != appleKey(cl.Path[0]) {
			t.Fatalf("class %d: flip batches %+v, want the ingress APPLE table's alone", cl.ID, c.steps.batches)
		}
		for _, b := range grouped(fmt.Sprintf("class %d make", cl.ID), made) {
			if b.key.table == TableAPPLE && !b.key.dev.vswitch {
				t.Fatalf("class %d: the make step emits into switch %d's APPLE table", cl.ID, b.key.dev.node)
			}
			batches++
		}
		if batches > 2*len(cl.Path)+1 {
			t.Fatalf("class %d: %d batches for a %d-switch path", cl.ID, batches, len(cl.Path))
		}
	}
	if routes == 0 {
		t.Fatal("no class's retire step retired a route")
	}
	t.Logf("the retire steps edited %d routing tables", routes)
	// A jumbo class is cut into equal slices on the same hops (§IV-B), so
	// one host's removal batch holds a removal per slice.
	jumbo := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 2500}
	jc, _, _, _ := setup(t, []core.Class{jumbo})
	a, _ := jc.assign.get(jumbo.ID)
	steer := jc.steps.group(jc.retireRules(nil, a, nil, nil))
	if len(steer) != 1 || len(steer[0].ops) != a.NumSubclasses() || len(steer[0].ops) != cap(steer[0].ops) {
		t.Fatalf("jumbo class of %d sub-classes: steering removals %+v", a.NumSubclasses(), steer)
	}
}

// TestWalkAllocs: a Forward walk allocates its trace's two exact-size
// slices — the switches and the instances — and nothing else, and a
// passing class's eight enforcement probes allocate nothing, on a three-NF
// chain and on a chain whose NAT rewrites the source mid-walk. Walking
// into growing trace slices, with every host injection returning a fresh
// slice of its own, made it 7–8 per walk and 56–64 per class.
func TestWalkAllocs(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS, policy.Proxy}, RateMbps: 400},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.NAT, policy.Firewall}, RateMbps: 300},
	}
	c, _, _, _ := setup(t, classes)
	for _, cl := range classes {
		hdr, err := c.FlowHeader(cl.ID, 5)
		if err != nil {
			t.Fatal(err)
		}
		fwd := testing.AllocsPerRun(100, func() {
			tr, err := c.Forward(hdr, cl.Path[0])
			if err != nil || !tr.Delivered || len(tr.Instances) != len(cl.Chain) || len(tr.Switches) != cap(tr.Switches) {
				t.Fatalf("class %d: trace %+v, err %v", cl.ID, tr, err)
			}
		})
		probes := testing.AllocsPerRun(20, func() {
			if err := c.CheckClassEnforcement(cl.ID); err != nil {
				t.Fatalf("class %d: %v", cl.ID, err)
			}
		})
		t.Logf("chain %v: Forward %.1f allocations, CheckClassEnforcement %.1f", cl.Chain, fwd, probes)
		if fwd > 2 {
			t.Errorf("chain %v: Forward allocated %.1f objects; the gate is 2", cl.Chain, fwd)
		}
		if probes != 0 {
			t.Errorf("chain %v: CheckClassEnforcement allocated %.1f objects; the gate is 0", cl.Chain, probes)
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
		for _, id := range a.insts {
			byInst[id]++
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

// allFresh marks every switch of path as one whose route the class is the
// first to hold, as on a controller with no other class to its
// destination.
func allFresh(path []topology.NodeID) []bool {
	fresh := make([]bool, len(path))
	for i := range fresh {
		fresh[i] = true
	}
	return fresh
}
