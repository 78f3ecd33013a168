package controller

// Topology suites: contracts the random-graph property tests check on 3–8
// switch graphs (property_test.go), run on the four topologies the paper
// evaluates and on a k=4 fat-tree, with paths of up to six switches and
// header-rewriting chains in the mix. Every state a suite reaches must
// pass the handler's CheckInvariants and auditTableIII.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// suiteSeeds is the number of random scenarios each suite runs per
// topology.
const suiteSeeds = 20

// suiteTopologies are the graphs every suite runs on, one subtest each.
var suiteTopologies = []struct {
	name  string
	build func() (*topology.Graph, error)
}{
	{"Internet2", func() (*topology.Graph, error) { return topology.Internet2(), nil }},
	{"GEANT", func() (*topology.Graph, error) { return topology.GEANT(), nil }},
	{"UNIV1", func() (*topology.Graph, error) { return topology.UNIV1(), nil }},
	{"AS3679", func() (*topology.Graph, error) { return topology.AS3679(), nil }},
	{"FatTree4", func() (*topology.Graph, error) {
		l, err := topology.FatTree(4)
		if err != nil {
			return nil, err
		}
		return l.Graph, nil
	}},
}

// forEachTopology runs body once per suite topology, as a subtest.
func forEachTopology(t *testing.T, body func(t *testing.T, g *topology.Graph)) {
	for _, st := range suiteTopologies {
		t.Run(st.name, func(t *testing.T) {
			g, err := st.build()
			if err != nil {
				t.Fatal(err)
			}
			body(t, g)
		})
	}
}

// suiteClasses draws k classes on g: loop-free walks of up to six
// switches, chains from randChain (NAT included), 10–300 Mbps.
func suiteClasses(rng *rand.Rand, g *topology.Graph, k int) []core.Class {
	classes := make([]core.Class, 0, k)
	for i := 0; i < k; i++ {
		start := topology.NodeID(rng.Intn(g.NumNodes()))
		path := []topology.NodeID{start}
		seen := map[topology.NodeID]bool{start: true}
		for len(path) < 6 {
			nbrs, err := g.Neighbors(path[len(path)-1])
			if err != nil {
				panic(err)
			}
			var cand []topology.NodeID
			for _, nb := range nbrs {
				if !seen[nb] {
					cand = append(cand, nb)
				}
			}
			if len(cand) == 0 || (len(path) >= 2 && rng.Intn(3) == 0) {
				break
			}
			next := cand[rng.Intn(len(cand))]
			path = append(path, next)
			seen[next] = true
		}
		classes = append(classes, core.Class{
			ID:       core.ClassID(i),
			Path:     path,
			Chain:    randChain(rng),
			RateMbps: 10 + rng.Float64()*290,
		})
	}
	return classes
}

// auditWith is the audit the suites run at every checkpoint and class
// boundary: d's invariants, then auditTableIII.
func auditWith(c *Controller, d *DynamicHandler) func() error {
	return func() error {
		if err := d.CheckInvariants(); err != nil {
			return err
		}
		return auditTableIII(c)
	}
}

// mustAudit fails the test unless c passes the suites' audit under a
// fresh handler.
func mustAudit(t *testing.T, c *Controller, label string) {
	t.Helper()
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditWith(c, d)(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestTopologyBatchMatchesLoop: a batch passes the suites' audit, and a
// batch admitted whole ends where the AddClass loop ends.
func TestTopologyBatchMatchesLoop(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *topology.Graph) {
		whole := 0
		for seed := int64(0); seed < suiteSeeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			classes := suiteClasses(rng, g, 1+rng.Intn(8))
			c := newPropController(t, g)
			err := c.AddClassBatch(classes, BatchOptions{Verify: true})
			mustAudit(t, c, fmt.Sprintf("seed %d", seed))
			if err != nil {
				continue
			}
			whole++
			state := c.Snapshot().String()
			loop := newPropController(t, g)
			for _, cl := range classes {
				if err := loop.AddClass(cl); err != nil {
					t.Fatalf("seed %d: AddClass(%d) refused a class the batch admitted: %v", seed, cl.ID, err)
				}
			}
			if got := loop.Snapshot().String(); got != state {
				t.Fatalf("seed %d: AddClass loop and batch differ at %s", seed, firstDiff(state, got))
			}
		}
		if whole == 0 {
			t.Fatal("no seed admitted its whole batch")
		}
		t.Logf("%d of %d batches admitted whole", whole, suiteSeeds)
	})
}

// TestTopologyReplayDeterministic: two controllers built alike and fed the
// same arrivals one class at a time refuse the same classes and end
// byte-identical, journal included — nothing on the admission path
// depends on map order.
func TestTopologyReplayDeterministic(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *topology.Graph) {
		admitted := 0
		for seed := int64(0); seed < suiteSeeds; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			classes := suiteClasses(rng, g, 1+rng.Intn(6))
			var sums [2]string
			var journals [2][]trace.Event
			var refused [2][]core.ClassID
			for i := range sums {
				clock := sim.New()
				rec, err := trace.NewRecorder(clock, 0)
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(Config{Topology: g, Clock: clock, Seed: 7, Tracer: rec})
				if err != nil {
					t.Fatal(err)
				}
				for _, cl := range classes {
					if err := c.AddClass(cl); err != nil {
						refused[i] = append(refused[i], cl.ID)
					}
				}
				mustAudit(t, c, fmt.Sprintf("seed %d replay %d", seed, i))
				sums[i] = installSum(t, c)
				journals[i] = rec.Events()
				if i == 0 {
					admitted += len(c.Classes())
				}
			}
			if !reflect.DeepEqual(refused[0], refused[1]) {
				t.Fatalf("seed %d: replays refused %v and %v", seed, refused[0], refused[1])
			}
			if sums[0] != sums[1] {
				t.Fatalf("seed %d: replays end in digests %s and %s", seed, sums[0], sums[1])
			}
			if !reflect.DeepEqual(journals[0], journals[1]) {
				t.Fatalf("seed %d: replay journals differ (%d vs %d events)", seed, len(journals[0]), len(journals[1]))
			}
		}
		if admitted == 0 {
			t.Fatal("no class admitted")
		}
		t.Logf("%d classes admitted per replay", admitted)
	})
}

// assertQuiescent re-optimises c to the placement it already runs: every
// class must classify unchanged, nothing may be installed, removed or
// provisioned, and the state must not move.
func assertQuiescent(t *testing.T, label string, c *Controller, prob *core.Problem, pl *core.Placement, audit func() error) {
	t.Helper()
	pre := c.Snapshot().String()
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Verify: true, Audit: audit})
	if err != nil {
		t.Fatalf("%s: re-optimising to the installed placement: %v", label, err)
	}
	if rep.Unchanged != len(prob.Classes) || rep.RateOnly != 0 || rep.ClassesChanged() != 0 ||
		rep.RulesInstalled != 0 || rep.RulesRemoved != 0 || rep.Provisioned != 0 {
		t.Fatalf("%s: re-optimising to the installed placement reported %+v", label, rep)
	}
	if post := c.Snapshot().String(); post != pre {
		t.Fatalf("%s: re-optimising to the installed placement moved %s", label, firstDiff(pre, post))
	}
}

// TestTopologyReOptimizeIdempotent: an installed placement re-optimised to
// itself moves nothing; a 30 % rate drift either commits, audited at every
// class boundary, or is refused with the state untouched; and the drifted
// placement, once committed, re-optimised to itself moves nothing again.
func TestTopologyReOptimizeIdempotent(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *topology.Graph) {
		committed := 0
		for seed := int64(0); seed < suiteSeeds; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			classes := suiteClasses(rng, g, 2+rng.Intn(5))
			c := newPropController(t, g)
			prob := &core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}
			pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
			if err != nil {
				t.Fatalf("seed %d: Solve: %v", seed, err)
			}
			if err := c.InstallPlacement(prob, pl); err != nil {
				t.Fatalf("seed %d: InstallPlacement: %v", seed, err)
			}
			d, err := NewDynamicHandler(c)
			if err != nil {
				t.Fatal(err)
			}
			audit := auditWith(c, d)
			if err := audit(); err != nil {
				t.Fatalf("seed %d: after install: %v", seed, err)
			}
			assertQuiescent(t, fmt.Sprintf("seed %d", seed), c, prob, pl, audit)

			drifted := &core.Problem{Topo: g, Classes: scaleClasses(classes, 1.3), Avail: prob.Avail}
			pl2, err := core.NewEngine(core.EngineOptions{}).Solve(drifted)
			if err != nil {
				t.Fatalf("seed %d: Solve of the drifted snapshot: %v", seed, err)
			}
			pre := c.Snapshot().String()
			if _, err := c.ReOptimize(drifted, pl2, ReoptOptions{Verify: true, Audit: audit, Reap: true}); err != nil {
				if post := c.Snapshot().String(); post != pre {
					t.Fatalf("seed %d: refused re-optimisation (%v) moved %s", seed, err, firstDiff(pre, post))
				}
				continue
			}
			committed++
			if err := audit(); err != nil {
				t.Fatalf("seed %d: after the drift: %v", seed, err)
			}
			assertQuiescent(t, fmt.Sprintf("seed %d drifted", seed), c, drifted, pl2, audit)
		}
		if committed == 0 {
			t.Fatal("no drifted placement committed")
		}
		t.Logf("%d of %d drifts committed", committed, suiteSeeds)
	})
}

// TestTopologyFailoverKeepsTableIII: a surge to four times the planned
// rates makes the handler reshape classes onto spawned instances; with
// those up, and again once the surge has passed and the handler has rolled
// every class back to its base split, the data plane passes the audits.
func TestTopologyFailoverKeepsTableIII(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *topology.Graph) {
		reshaped := 0
		for seed := int64(0); seed < suiteSeeds; seed++ {
			rng := rand.New(rand.NewSource(300 + seed))
			classes := suiteClasses(rng, g, 2+rng.Intn(5))
			clock := sim.New()
			c, err := New(Config{Topology: g, Clock: clock, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			_ = c.AddClassBatch(classes, BatchOptions{}) // a refused class is no violation
			d, err := NewDynamicHandler(c)
			if err != nil {
				t.Fatal(err)
			}
			audit := auditWith(c, d)
			surge := make(map[core.ClassID]float64)
			calm := make(map[core.ClassID]float64)
			for _, id := range c.Classes() {
				a, _ := c.assign.get(id)
				surge[id] = 4 * a.Class.RateMbps
				calm[id] = 0.2 * a.Class.RateMbps
			}
			if _, err := d.Observe(surge); err != nil {
				t.Fatalf("seed %d: Observe(surge): %v", seed, err)
			}
			clock.Run(6 * time.Second)
			for _, id := range c.Classes() {
				if a, _ := c.assign.get(id); a.NumSubclasses() > a.NumBase() {
					reshaped++
				}
			}
			if err := audit(); err != nil {
				t.Fatalf("seed %d: during the surge: %v", seed, err)
			}
			if _, err := d.Observe(calm); err != nil {
				t.Fatalf("seed %d: Observe(calm): %v", seed, err)
			}
			clock.Run(6 * time.Second)
			for _, id := range c.Classes() {
				if a, _ := c.assign.get(id); a.NumSubclasses() != a.NumBase() {
					t.Fatalf("seed %d: class %d still has %d sub-classes after the surge, %d at base",
						seed, id, a.NumSubclasses(), a.NumBase())
				}
			}
			if err := audit(); err != nil {
				t.Fatalf("seed %d: after rollback: %v", seed, err)
			}
		}
		if reshaped == 0 {
			t.Fatal("the surges reshaped no class")
		}
		t.Logf("%d classes reshaped", reshaped)
	})
}

// TestTopologyRemovalLeavesNoTrace: removing every other installed class
// in one transaction leaves none of its rules and none of its share on the
// instance-portion ledger, keeps every survivor enforced and the audits
// clean; re-admitting the removed classes passes the audits again.
func TestTopologyRemovalLeavesNoTrace(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *topology.Graph) {
		removed := 0
		for seed := int64(0); seed < suiteSeeds; seed++ {
			rng := rand.New(rand.NewSource(400 + seed))
			classes := suiteClasses(rng, g, 2+rng.Intn(7))
			c := newPropController(t, g)
			_ = c.AddClassBatch(classes, BatchOptions{}) // a refused class is no violation
			ids := c.Classes()
			if len(ids) < 2 {
				continue
			}
			d, err := NewDynamicHandler(c)
			if err != nil {
				t.Fatal(err)
			}
			audit := auditWith(c, d)
			txn := c.Begin()
			var gone []core.Class
			for i, id := range ids {
				if i%2 == 0 {
					a, _ := c.assign.get(id)
					gone = append(gone, a.Class)
					txn.StageRemove(id)
				}
			}
			if err := txn.Commit(TxnOptions{Verify: true, Audit: audit}); err != nil {
				t.Fatalf("seed %d: removing %d classes: %v", seed, len(gone), err)
			}
			removed += len(gone)
			for _, cl := range gone {
				assertNoClassRules(t, c, cl.ID)
			}
			if err := audit(); err != nil {
				t.Fatalf("seed %d: after the removal: %v", seed, err)
			}
			if err := c.CheckEnforcement(); err != nil {
				t.Fatalf("seed %d: survivors after the removal: %v", seed, err)
			}
			// Each class charges its rate once per chain position. The live
			// ledger is summed: Snapshot's portions are derived from the
			// class records, so they would check the derivation against
			// itself.
			want, got := 0.0, 0.0
			for _, id := range c.Classes() {
				a, _ := c.assign.get(id)
				want += a.Class.RateMbps * float64(len(a.Class.Chain))
			}
			for _, p := range c.assign.portions() {
				got += p
			}
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("seed %d: the portion ledger holds %v Mbps, the survivors charge %v", seed, got, want)
			}
			if err := c.AddClassBatch(gone, BatchOptions{Verify: true}); err != nil {
				t.Fatalf("seed %d: re-admitting the removed classes: %v", seed, err)
			}
			if got := c.Classes(); !reflect.DeepEqual(got, ids) {
				t.Fatalf("seed %d: after re-admission %v installed, before the removal %v", seed, got, ids)
			}
			if err := audit(); err != nil {
				t.Fatalf("seed %d: after re-admission: %v", seed, err)
			}
		}
		if removed == 0 {
			t.Fatal("no seed installed two classes to remove from")
		}
		t.Logf("%d classes removed and re-admitted", removed)
	})
}
