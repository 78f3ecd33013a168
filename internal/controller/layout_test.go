package controller

// What one installed class costs: the per-class record's layout, the live
// heap a FatTree-16 class holds with its rules, and the sharing of the
// rules' action lists. The flow table's own per-rule cost is pinned by
// internal/flowtable's TestTableBytesPerRule.

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// TestAssignmentLayout pins the per-class record. The two generation
// numbers, gen and since, fill one word, and the base count and Global
// pack in the next, so an Assignment is its class, two slice headers and
// those two words: 152 bytes, where the five parallel arrays, the
// row-per-sub-class instance table and the stored prefix it replaced made
// 232. since, which routes follow (routeHold), took it from 144. A sub-class record is its hop vector, its
// planned portion, its weight and its tag: 48 bytes.
func TestAssignmentLayout(t *testing.T) {
	if got := unsafe.Sizeof(Assignment{}); got != 152 {
		t.Errorf("Assignment is %d bytes; the layout is pinned at 152", got)
	}
	if got := unsafe.Sizeof(subRecord{}); got != 48 {
		t.Errorf("subRecord is %d bytes; the layout is pinned at 48", got)
	}
}

// fatTreeChunk is how many classes loadFatTree admits per AddClassBatch.
const fatTreeChunk = 2048

// newFatTreeController builds a controller over FatTree-16 whose hosts
// never run out of capacity, so that every class is admitted.
func newFatTreeController(tb testing.TB) (*Controller, *topology.FatTreeLayout) {
	tb.Helper()
	l, err := topology.FatTree(16)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(Config{
		Topology:      l.Graph,
		Clock:         sim.New(),
		Seed:          1,
		HostResources: policy.Resources{Cores: 1 << 20, MemoryMB: 1 << 30},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c, l
}

// fatTreeBatch returns {Firewall} classes [from, from+n). Class i enters
// at one of four ingress pods and leaves at an edge switch of another pod,
// on the equal-cost path i picks.
func fatTreeBatch(tb testing.TB, l *topology.FatTreeLayout, from, n int) []core.Class {
	tb.Helper()
	k, half := l.K, l.K/2
	batch := make([]core.Class, 0, n)
	for i := from; i < from+n; i++ {
		srcPod := i % 4
		path, err := l.Path(srcPod, (i/4)%half, (srcPod+1+i%(k-1))%k, (i/(k*half))%half, i)
		if err != nil {
			tb.Fatal(err)
		}
		batch = append(batch, core.Class{ID: core.ClassID(i), Path: path, Chain: policy.Chain{policy.Firewall}, RateMbps: 1})
	}
	return batch
}

// loadFatTree admits fatTreeBatch's classes [from, from+n) in chunks.
func loadFatTree(tb testing.TB, c *Controller, l *topology.FatTreeLayout, from, n int) {
	tb.Helper()
	for lo := from; lo < from+n; lo += fatTreeChunk {
		if err := c.AddClassBatch(fatTreeBatch(tb, l, lo, min(fatTreeChunk, from+n-lo)), BatchOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestControllerBytesPerClass caps the live heap one more installed class
// costs on FatTree-16: its Assignment (152 B), its sub-class record (48
// B), its instance and hop arrays (16 and 8 B) and its share of the rules
// — the classification and steering rules it owns and the flow tables'
// trie nodes, names and match fields they need. Measured over 4096
// {Firewall} classes installed behind 512, so the first classes' routing,
// host-match and pass-by rules and instances stay out of the figure:
// 1 118 B a class (1 126 B under the race detector). A fresh action list
// per rule and the 232-byte record with its six side arrays made it
// 1 758 B, and 40-byte trie slots, which kept a copy of their key,
// 1 469 B. The gate is 1 185 B, the race figure plus about 5 % (1 360 B
// when the class measured 1 296 B).
func TestControllerBytesPerClass(t *testing.T) {
	const warm, n = 512, 4096
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c, l := newFatTreeController(t)
	loadFatTree(t, c, l, 0, warm)
	before := heap()
	loadFatTree(t, c, l, warm, n)
	perClass := float64(heap()-before) / n
	runtime.KeepAlive(c)
	t.Logf("%.0f B of live heap per class; %d distinct action lists after %d classes", perClass, len(c.actions), warm+n)
	if perClass > 1185 {
		t.Fatalf("an installed class holds %.0f B, over 1185", perClass)
	}
}

// TestActionListsShared: across every physical-switch and vSwitch table,
// the installed rules' action lists use no more backing arrays than they
// have distinct values — each distinct list is emitted once and shared —
// and every shared list is clipped, so no append can write into it. Each
// rule is fetched with Lookup, which hands out the installed slice itself,
// on a packet built from the rule's own match.
func TestActionListsShared(t *testing.T) {
	c, l := newFatTreeController(t)
	loadFatTree(t, c, l, 0, 1024)
	arrays := make(map[*flowtable.Action]bool)
	values := make(map[actionKey]bool)
	rules := 0
	if err := c.eachTable(func(_ tableKey, tbl *flowtable.Table) error {
		for _, r := range tbl.Rules() {
			hit, ok := tbl.Lookup(packetMatching(r.Match))
			if !ok || !hit.Equal(r) {
				t.Fatalf("rule %q is not what a packet matching it finds (%q)", r.Name, hit.Name)
			}
			if len(hit.Actions) != cap(hit.Actions) {
				t.Fatalf("rule %q: %d actions in an array of %d", r.Name, len(hit.Actions), cap(hit.Actions))
			}
			k := actionKey{n: len(hit.Actions)}
			copy(k.acts[:], hit.Actions)
			arrays[&hit.Actions[0]] = true
			values[k] = true
			rules++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rules carry %d distinct action lists in %d arrays", rules, len(values), len(arrays))
	if len(arrays) > len(values) {
		t.Fatalf("%d rules carry %d distinct action lists in %d backing arrays", rules, len(values), len(arrays))
	}
}

// packetMatching returns a packet every concrete field of m matches, with
// the wildcarded fields left zero.
func packetMatching(m flowtable.Match) flowtable.Packet {
	var p flowtable.Packet
	if v, ok := m.HostTag(); ok {
		p.HostTag = v
	}
	if v, ok := m.SubTag(); ok {
		p.SubTag = v
	}
	if v, ok := m.InPort(); ok {
		p.InPort = v
	}
	if v, ok := m.Src(); ok {
		p.Hdr.SrcIP = v.Addr
	}
	if v, ok := m.Dst(); ok {
		p.Hdr.DstIP = v.Addr
	}
	if v, ok := m.Proto(); ok {
		p.Hdr.Proto = v
	}
	if v, ok := m.SrcPort(); ok {
		p.Hdr.SrcPort = v
	}
	if v, ok := m.DstPort(); ok {
		p.Hdr.DstPort = v
	}
	return p
}

// held is how many entries the step buffers hold.
func (s *ruleSteps) held() int {
	return len(s.makeOps) + len(s.flipOps) + len(s.batches) + len(s.ops) + len(s.need)
}

// TestRetainedScratchBounded caps what a controller keeps of its
// transactions between them: the spare buffer set, whose buffers are
// dropped once grown past scratchCap entries, and the step buffers, left
// empty and dropped once grown past stepCap operations. It is measured
// after a 4 608-class AddClassBatch on FatTree-16, and after two
// re-optimizations over 100 GEANT classes that remove half of them and
// install them again: the spare set then holds 256 B (its empty buffer
// headers) and about 1.6 KB of live heap, and the step buffers hold
// nothing after the bulk load, whose buffers outgrew stepCap, and 4 016 B
// after the re-optimizations. With no cap the same runs left 951 KB and
// 80 KB in the spare set. (240 B and 1.2 KB before each refresh carried
// its own pre-image, 40 bytes where it was 24, and the set the count of
// those committed.) The gate is 8 KB for each. (The fixed rule
// arena the step buffers replace was 2 448 B.)
func TestRetainedScratchBounded(t *testing.T) {
	const stepsGate = 8 << 10
	check := func(what string, c *Controller) {
		t.Helper()
		if c.spare == nil {
			t.Fatalf("%s: the controller kept no spare buffer set", what)
		}
		if n := c.steps.held(); n != 0 {
			t.Errorf("%s: the step buffers hold %d entries", what, n)
		}
		heap := func() int64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		with := heap()
		c.spare = nil
		spare := with - heap()
		with = heap()
		c.steps = ruleSteps{slot: c.steps.slot}
		steps := with - heap()
		runtime.KeepAlive(c)
		t.Logf("%s: the spare buffer set holds %d B, the step buffers %d B", what, spare, steps)
		if spare > 8<<10 {
			t.Errorf("%s: the spare buffer set holds %d B, over %d", what, spare, 8<<10)
		}
		if steps > stepsGate {
			t.Errorf("%s: the step buffers hold %d B, over %d", what, steps, stepsGate)
		}
	}

	c, l := newFatTreeController(t)
	if err := c.AddClassBatch(fatTreeBatch(t, l, 0, 4608), BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after a 4608-class AddClassBatch", c)

	g, prob, pl := hundredClassFixture(t)
	half := *prob
	half.Classes = prob.Classes[:hundredClasses/2]
	for _, p := range []*core.Problem{&half, prob} {
		rep, err := g.ReOptimize(p, pl, ReoptOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Added+rep.Removed != hundredClasses/2 {
			t.Fatalf("re-optimization added %d and removed %d classes, want %d in all", rep.Added, rep.Removed, hundredClasses/2)
		}
	}
	check("after ReOptimize", g)
}
