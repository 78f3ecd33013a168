package controller

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// Property-based enforcement testing: random small topologies, random
// policies and paths, random rates — for every class the controller
// accepts, every forwarded probe must walk the class's chain in order and
// leave at the class's original egress, and that packet-level verdict must
// agree with CheckClassEnforcement. A failing seed is shrunk to a minimal
// class set and logged so the exact case can be replayed.

// propSeeds is the number of random scenarios each property test runs.
const propSeeds = 200

// randTopo builds a random connected graph: a random spanning tree plus a
// few extra links.
func randTopo(rng *rand.Rand) *topology.Graph {
	n := 3 + rng.Intn(6)
	g := topology.NewGraph("prop")
	ids := make([]topology.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("s%d", i), topology.KindBackbone)
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		if err := g.AddLink(ids[j], ids[i], 10_000, 1); err != nil {
			panic(err)
		}
	}
	for k := rng.Intn(n); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			_ = g.AddLink(ids[a], ids[b], 10_000, 1) // duplicate links are fine to reject
		}
	}
	return g
}

// randPath walks the graph without revisiting switches.
func randPath(rng *rand.Rand, g *topology.Graph) []topology.NodeID {
	start := topology.NodeID(rng.Intn(g.NumNodes()))
	path := []topology.NodeID{start}
	seen := map[topology.NodeID]bool{start: true}
	for len(path) < g.NumNodes() {
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
	return path
}

// randChain picks a policy chain: one of the paper's common chains, or a
// random repetition-free NF sequence (which may include the
// header-rewriting NAT, exercising the global-tag path).
func randChain(rng *rand.Rand) policy.Chain {
	if rng.Intn(2) == 0 {
		chains := policy.CommonChains()
		return chains[rng.Intn(len(chains))]
	}
	nfs := policy.AllNFs()
	perm := rng.Perm(len(nfs))
	m := 1 + rng.Intn(3)
	chain := make(policy.Chain, 0, m)
	for _, idx := range perm[:m] {
		chain = append(chain, nfs[idx])
	}
	return chain
}

// genClasses derives a random workload from the seed. Topology generation
// consumes the same rng, so a seed fully determines the scenario.
func genClasses(rng *rand.Rand, g *topology.Graph) []core.Class {
	k := 1 + rng.Intn(5)
	classes := make([]core.Class, 0, k)
	for i := 0; i < k; i++ {
		classes = append(classes, core.Class{
			ID:       core.ClassID(i),
			Path:     randPath(rng, g),
			Chain:    randChain(rng),
			RateMbps: 10 + rng.Float64()*290,
		})
	}
	return classes
}

// newPropController builds a controller with an APPLE host at every switch.
func newPropController(t *testing.T, g *topology.Graph) *Controller {
	t.Helper()
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// checkClassTraces verifies the packet-level property for one installed
// class and returns a descriptive error on violation: all eight probes
// delivered at the path egress having visited the chain's NF types in
// order, with the Fin tag set.
func checkClassTraces(c *Controller, id core.ClassID) error {
	a, err := c.Assignment(id)
	if err != nil {
		return err
	}
	egress := a.Class.Path[len(a.Class.Path)-1]
	for sub := uint32(0); sub < 8; sub++ {
		hdr, err := c.FlowHeader(id, sub<<4)
		if err != nil {
			return err
		}
		tr, err := c.Forward(hdr, a.Class.Path[0])
		if err != nil {
			return fmt.Errorf("class %d probe %d: %w", id, sub, err)
		}
		if !tr.Delivered {
			return fmt.Errorf("class %d probe %d not delivered", id, sub)
		}
		if last := tr.Switches[len(tr.Switches)-1]; last != egress {
			return fmt.Errorf("class %d probe %d left at switch %d, egress is %d", id, sub, last, egress)
		}
		if len(tr.Instances) != len(a.Class.Chain) {
			return fmt.Errorf("class %d probe %d visited %d instances, chain has %d",
				id, sub, len(tr.Instances), len(a.Class.Chain))
		}
		for j, instID := range tr.Instances {
			nf, err := c.InstanceNF(instID)
			if err != nil {
				return err
			}
			if nf != a.Class.Chain[j] {
				return fmt.Errorf("class %d probe %d position %d: visited %v, chain says %v",
					id, sub, j, nf, a.Class.Chain[j])
			}
		}
		if tr.FinalHostTag != flowtable.HostTagFin {
			return fmt.Errorf("class %d probe %d final host tag %d, want Fin", id, sub, tr.FinalHostTag)
		}
	}
	return nil
}

// runEnforcementCase installs the classes serially (skipping ones the
// online planner rejects for capacity) and checks the enforcement property
// for every accepted class, including agreement with
// CheckClassEnforcement.
func runEnforcementCase(t *testing.T, seed int64, drop map[int]bool) error {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randTopo(rng)
	classes := genClasses(rng, g)
	c := newPropController(t, g)
	for i, cl := range classes {
		if drop[i] {
			continue
		}
		if err := c.AddClass(cl); err != nil {
			continue // unplaceable under random capacity; not a violation
		}
		traceErr := checkClassTraces(c, cl.ID)
		checkErr := c.CheckClassEnforcement(cl.ID)
		if (traceErr == nil) != (checkErr == nil) {
			return fmt.Errorf("class %d: trace verdict (%v) disagrees with CheckClassEnforcement (%v)",
				cl.ID, traceErr, checkErr)
		}
		if traceErr != nil {
			return traceErr
		}
	}
	if err := c.CheckTables(); err != nil {
		return fmt.Errorf("shadowed rules: %w", err)
	}
	return nil
}

// shrinkCase drops classes one at a time while the failure persists and
// returns the minimal dropped-set complement description.
func shrinkCase(t *testing.T, seed int64, total int) (map[int]bool, error) {
	t.Helper()
	drop := make(map[int]bool)
	err := runEnforcementCase(t, seed, drop)
	if err == nil {
		return drop, nil
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < total; i++ {
			if drop[i] {
				continue
			}
			drop[i] = true
			if e := runEnforcementCase(t, seed, drop); e != nil {
				err = e
				changed = true
			} else {
				delete(drop, i)
			}
		}
	}
	return drop, err
}

// TestPropertyEnforcement is the randomized enforcement property over
// propSeeds scenarios.
func TestPropertyEnforcement(t *testing.T) {
	for seed := int64(0); seed < propSeeds; seed++ {
		if err := runEnforcementCase(t, seed, nil); err != nil {
			drop, minErr := shrinkCase(t, seed, 8)
			t.Fatalf("seed %d fails: %v\nshrunk: rerun with seed %d dropping classes %v → %v",
				seed, err, seed, drop, minErr)
		}
	}
}

// gatherTables snapshots every rule of every switch and vSwitch table.
func gatherTables(t *testing.T, c *Controller, g *topology.Graph) map[string][]flowtable.Rule {
	t.Helper()
	out := make(map[string][]flowtable.Rule)
	for _, n := range g.Nodes() {
		sw, err := c.Switch(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < sw.Pipeline.NumTables(); ti++ {
			tb, err := sw.Pipeline.Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("sw%d/t%d", n.ID, ti)] = tb.Rules()
		}
		h, err := c.Host(n.ID)
		if err != nil {
			continue
		}
		for ti := 0; ti < h.VSwitch().NumTables(); ti++ {
			tb, err := h.VSwitch().Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("host%d/t%d", n.ID, ti)] = tb.Rules()
		}
	}
	return out
}

// installSum hashes everything the install differentials compare: the
// full state digest plus the rule-update odometer.
func installSum(t *testing.T, c *Controller) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%supdates=%d\n", stateDigest(t, c), c.RuleUpdates()))))
}

// parentInstallDigests loads testdata/install_digests.txt: one
// "<seed> <serial|batch> <sha256>" line per propSeeds scenario and install
// route, recorded at 051d8de, the last commit with a separate serial and
// batch install path. The one pipeline must reproduce every line.
func parentInstallDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/install_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("install_digests.txt: malformed line %q", line)
		}
		out[f[0]+" "+f[1]] = f[2]
	}
	return out
}

// TestPropertyBatchMatchesSerial is the batch-of-one differential: for
// every random scenario, N transactions of one class each (the AddClass
// loop) and one transaction of N (AddClassBatch, at 1 and at 8 workers,
// with the verify stage) must leave byte-identical controller state —
// every table's rules in order, assignments, tags, rule-update counts —
// identical Forward traces and enforcement verdicts, the state the two
// pre-merge install paths left (testdata/install_digests.txt), and, across
// worker counts, an identical journal.
func TestPropertyBatchMatchesSerial(t *testing.T) {
	parent := parentInstallDigests(t)
	seeds, removedReshaped, updatedReshaped := 0, 0, 0
	for seed := int64(0); seed < propSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randTopo(rng)
		classes := genClasses(rng, g)

		// Filter to the classes the planner accepts, using a scratch
		// controller; acceptance only widens as rejects drop out.
		scratch := newPropController(t, g)
		var accepted []core.Class
		for _, cl := range classes {
			if err := scratch.AddClass(cl); err == nil {
				accepted = append(accepted, cl)
			}
		}
		if len(accepted) == 0 {
			continue
		}

		serial := newPropController(t, g)
		for _, cl := range accepted {
			if err := serial.AddClass(cl); err != nil {
				t.Fatalf("seed %d: serial AddClass(%d) rejected a pre-accepted class: %v", seed, cl.ID, err)
			}
		}
		if got, want := installSum(t, serial), parent[fmt.Sprintf("%d serial", seed)]; got != want {
			t.Fatalf("seed %d: AddClass loop digest %s, parent commit recorded %s", seed, got, want)
		}
		seeds++
		// batches are compared against the serial controller as installed,
		// so its cut-over runs on a twin.
		twin := newPropController(t, g)
		for _, cl := range accepted {
			if err := twin.AddClass(cl); err != nil {
				t.Fatal(err)
			}
		}
		rm, up := cutOverReshaped(t, fmt.Sprintf("seed %d serial", seed), twin, accepted)
		removedReshaped += rm
		updatedReshaped += up
		serialCut := installSum(t, twin)

		var journals [][]trace.Event
		for _, workers := range []int{1, 8} {
			clock := sim.New()
			rec, err := trace.NewRecorder(clock, 0)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := New(Config{Topology: g, Clock: clock, Seed: 7, Tracer: rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.AddClassBatch(accepted, BatchOptions{Workers: workers, Verify: true}); err != nil {
				t.Fatalf("seed %d workers %d: AddClassBatch: %v", seed, workers, err)
			}
			if got, want := installSum(t, batch), parent[fmt.Sprintf("%d batch", seed)]; got != want {
				t.Fatalf("seed %d workers %d: AddClassBatch digest %s, parent commit recorded %s", seed, workers, got, want)
			}
			assertSameInstall(t, fmt.Sprintf("seed %d workers %d", seed, workers), g, accepted, serial, batch)
			// The same failover and the same removal and cutover of
			// reshaped classes leave the same state, whichever route
			// installed them.
			label := fmt.Sprintf("seed %d workers %d", seed, workers)
			if r, u := cutOverReshaped(t, label, batch, accepted); r != rm || u != up {
				t.Fatalf("%s: removed %d and updated %d reshaped classes, the serial install %d and %d", label, r, u, rm, up)
			}
			if got := installSum(t, batch); got != serialCut {
				t.Fatalf("%s: digest after the reshaped cut-over %s, after the AddClass loop %s", label, got, serialCut)
			}
			journals = append(journals, rec.Events())
		}
		if !reflect.DeepEqual(journals[0], journals[1]) {
			t.Fatalf("seed %d: journal differs between 1 and 8 workers (%d vs %d events)",
				seed, len(journals[0]), len(journals[1]))
		}
	}
	if 2*seeds != len(parent) {
		t.Fatalf("%d scenarios installed, install_digests.txt has %d lines (want two per scenario)", seeds, len(parent))
	}
	if removedReshaped == 0 || updatedReshaped == 0 {
		t.Fatalf("the scenarios removed %d and updated %d handler-reshaped classes; want both exercised", removedReshaped, updatedReshaped)
	}
	t.Logf("%d scenarios; %d reshaped classes removed, %d cut over", seeds, removedReshaped, updatedReshaped)
}

// cutOverReshaped drives a Dynamic Handler on c until it has reshaped
// classes — every class surges to three times its planned rate, and the
// clock runs until the spawned instances are up — then commits one
// transaction that removes the first class carrying a handler-added
// sub-class and cuts the second one over, make-before-break, to a single
// sub-class on the hops of its first base sub-class (audited at every
// class boundary, probes re-injected). Afterwards no rule of the removed
// class is left anywhere — its derived removal names cover the sub-classes
// only the handler knew — and the data plane enforces every policy. It
// reports how many reshaped classes it removed and cut over.
func cutOverReshaped(t *testing.T, label string, c *Controller, accepted []core.Class) (removed, updated int) {
	t.Helper()
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	surge := make(map[core.ClassID]float64, len(accepted))
	for _, cl := range accepted {
		surge[cl.ID] = 3 * cl.RateMbps
	}
	if _, err := d.Observe(surge); err != nil {
		t.Fatalf("%s: Observe: %v", label, err)
	}
	if err := c.clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	txn := c.Begin()
	var gone []core.ClassID
	for _, cl := range accepted {
		a, _ := c.assign.get(cl.ID)
		if len(a.Subclasses) == len(a.Base) {
			continue
		}
		if removed == 0 {
			txn.StageRemove(cl.ID)
			gone = append(gone, cl.ID)
			removed++
			continue
		}
		dist := zeroDist(len(cl.Path), len(cl.Chain))
		for j, h := range a.Subclasses[0].Hops {
			dist[h][j] = 1
		}
		txn.StageUpdate(a.Class, dist)
		updated++
		break
	}
	if err := txn.Commit(TxnOptions{Verify: true, Audit: d.CheckInvariants}); err != nil {
		t.Fatalf("%s: cut-over of reshaped classes: %v", label, err)
	}
	for _, id := range gone {
		assertNoClassRules(t, c, id)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants after the cut-over: %v", label, err)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("%s: enforcement after the cut-over: %v", label, err)
	}
	return removed, updated
}

// assertSameInstall compares a batch-installed controller against the
// serially installed one, field by field, so a digest mismatch comes with
// the first differing table, assignment, or packet trace.
func assertSameInstall(t *testing.T, label string, g *topology.Graph, accepted []core.Class, serial, batch *Controller) {
	t.Helper()
	if got, want := batch.RuleUpdates(), serial.RuleUpdates(); got != want {
		t.Fatalf("%s: batch made %d rule updates, serial %d", label, got, want)
	}
	if got, want := batch.Classes(), serial.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batch classes %v, serial %v", label, got, want)
	}
	for _, cl := range accepted {
		as, err := serial.Assignment(cl.ID)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := batch.Assignment(cl.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(as, ab) {
			t.Fatalf("%s: class %d assignment differs\nserial: %+v\nbatch:  %+v", label, cl.ID, as, ab)
		}
	}
	st, bt := gatherTables(t, serial, g), gatherTables(t, batch, g)
	if !reflect.DeepEqual(st, bt) {
		for k := range st {
			if !reflect.DeepEqual(st[k], bt[k]) {
				t.Fatalf("%s: table %s differs\nserial: %v\nbatch:  %v", label, k, st[k], bt[k])
			}
		}
		t.Fatalf("%s: table sets differ", label)
	}
	// Packet-level identity: traces of every probe must match
	// exactly, and enforcement verdicts must agree.
	for _, cl := range accepted {
		for sub := uint32(0); sub < 8; sub++ {
			hs, err1 := serial.FlowHeader(cl.ID, sub<<4)
			hb, err2 := batch.FlowHeader(cl.ID, sub<<4)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: FlowHeader: %v / %v", label, err1, err2)
			}
			ts, errS := serial.Forward(hs, cl.Path[0])
			tb, errB := batch.Forward(hb, cl.Path[0])
			if (errS == nil) != (errB == nil) {
				t.Fatalf("%s class %d probe %d: serial err %v, batch err %v", label, cl.ID, sub, errS, errB)
			}
			if !reflect.DeepEqual(ts, tb) {
				t.Fatalf("%s class %d probe %d: traces differ\nserial: %+v\nbatch:  %+v",
					label, cl.ID, sub, ts, tb)
			}
		}
	}
	if errS, errB := serial.CheckEnforcement(), batch.CheckEnforcement(); (errS == nil) != (errB == nil) {
		t.Fatalf("%s: enforcement verdicts differ: serial %v, batch %v", label, errS, errB)
	}
	if errS, errB := serial.CheckTables(), batch.CheckTables(); (errS == nil) != (errB == nil) {
		t.Fatalf("%s: shadow verdicts differ: serial %v, batch %v", label, errS, errB)
	}
}
