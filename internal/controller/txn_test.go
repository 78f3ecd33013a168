package controller

import (
	"reflect"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// assertNoClassRules fails if any rule owned by the class survives.
func assertNoClassRules(t *testing.T, c *Controller, id core.ClassID) {
	t.Helper()
	vsw := "vsw-" + itoa(int(id)) + "-"
	cls := "cls-" + itoa(int(id))
	for _, tbl := range c.Snapshot().Tables {
		for _, r := range tbl.Rules {
			if strings.HasPrefix(r.Name, vsw) || r.Name == cls {
				t.Errorf("stale rule %q for removed class %d", r.Name, id)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func reoptClasses() []core.Class {
	return []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 250},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 150},
	}
}

func scaleClasses(classes []core.Class, f float64) []core.Class {
	out := append([]core.Class(nil), classes...)
	for i := range out {
		out[i].RateMbps *= f
	}
	return out
}

// TestReOptimizeNoChange: re-committing the placement already installed
// touches nothing.
func TestReOptimizeNoChange(t *testing.T) {
	c, prob, pl, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(prob, pl, ReoptOptions{Verify: true, Audit: handler.CheckInvariants})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Unchanged != len(prob.Classes) || rep.ClassesChanged() != 0 {
		t.Errorf("report %+v, want all unchanged", rep)
	}
	if rep.RulesInstalled != 0 || rep.RulesRemoved != 0 {
		t.Errorf("no-change pass touched %d+%d rules", rep.RulesInstalled, rep.RulesRemoved)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestReOptimizeRateToleranceBoundary pins rateTolerance (5 %) from both
// sides. The installed placement is re-applied with every class's rate
// scaled, so the split cannot move and only the rate check decides; the
// rates sit far under one instance's capacity, so 7 % more load cannot
// add a capacity slice. At 1.03x every class is Unchanged and keeps its
// installed rate; at 1.07x every class is refreshed RateOnly and carries
// the new one.
func TestReOptimizeRateToleranceBoundary(t *testing.T) {
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 120},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 90},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 60},
	}
	for _, tc := range []struct {
		factor   float64
		rateOnly bool
	}{{1.03, false}, {1.07, true}} {
		c, prob, pl, _ := setup(t, classes)
		scaled := withRates(prob, tc.factor)
		rep, err := c.ReOptimize(scaled, pl, ReoptOptions{Verify: true})
		if err != nil {
			t.Fatalf("%.2fx: ReOptimize: %v", tc.factor, err)
		}
		n := len(classes)
		if tc.rateOnly && (rep.RateOnly != n || rep.Unchanged != 0 || rep.ClassesChanged() != 0) {
			t.Errorf("%.2fx: report %+v, want all %d classes rate-only", tc.factor, rep, n)
		}
		if !tc.rateOnly && (rep.Unchanged != n || rep.RateOnly != 0 || rep.ClassesChanged() != 0) {
			t.Errorf("%.2fx: report %+v, want all %d classes unchanged", tc.factor, rep, n)
		}
		for i, cl := range scaled.Classes {
			a, err := c.Assignment(cl.ID)
			if err != nil {
				t.Fatalf("Assignment(%d): %v", cl.ID, err)
			}
			want := classes[i].RateMbps
			if tc.rateOnly {
				want = cl.RateMbps
			}
			if a.Class.RateMbps != want {
				t.Errorf("%.2fx: class %d installed rate %v, want %v", tc.factor, cl.ID, a.Class.RateMbps, want)
			}
		}
	}
}

// TestReOptimizeRateDrift: a 30% uniform rate shift re-targets every class
// without adding or removing any, and the installed rates track the new
// snapshot.
func TestReOptimizeRateDrift(t *testing.T) {
	c, prob, _, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	shifted := &core.Problem{Topo: prob.Topo, Classes: scaleClasses(prob.Classes, 1.3), Avail: prob.Avail}
	pl2, err := core.NewEngine(core.EngineOptions{}).Solve(shifted)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(shifted, pl2, ReoptOptions{Verify: true, Audit: handler.CheckInvariants, Reap: true})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Added != 0 || rep.Removed != 0 {
		t.Errorf("uniform drift added/removed classes: %+v", rep)
	}
	if rep.Unchanged != 0 {
		t.Errorf("30%% drift left %d classes unchanged (tolerance is 5%%)", rep.Unchanged)
	}
	for _, cl := range shifted.Classes {
		a, err := c.Assignment(cl.ID)
		if err != nil {
			t.Fatalf("Assignment(%d): %v", cl.ID, err)
		}
		if a.Class.RateMbps != cl.RateMbps {
			t.Errorf("class %d rate %v, want %v", cl.ID, a.Class.RateMbps, cl.RateMbps)
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
	if err := c.CheckTables(); err != nil {
		t.Errorf("CheckTables: %v", err)
	}
}

// TestReOptimizeAddRemove: a snapshot that drops one class and introduces
// another commits as exactly one add and one remove, with the departed
// class's rules gone from every table.
func TestReOptimizeAddRemove(t *testing.T) {
	c, prob, _, _ := setup(t, reoptClasses())
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	next := &core.Problem{Topo: prob.Topo, Avail: prob.Avail}
	next.Classes = append(append([]core.Class(nil), prob.Classes[1:]...),
		core.Class{ID: 3, Path: linePath(4), Chain: policy.Chain{policy.NAT}, RateMbps: 300})
	pl2, err := core.NewEngine(core.EngineOptions{}).Solve(next)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReOptimize(next, pl2, ReoptOptions{Verify: true, Audit: handler.CheckInvariants, Reap: true})
	if err != nil {
		t.Fatalf("ReOptimize: %v", err)
	}
	if rep.Added != 1 || rep.Removed != 1 {
		t.Errorf("report %+v, want 1 add + 1 remove", rep)
	}
	if _, err := c.Assignment(0); err == nil {
		t.Error("class 0 should be gone")
	}
	if _, err := c.Assignment(3); err != nil {
		t.Errorf("class 3 should be installed: %v", err)
	}
	assertNoClassRules(t, c, 0)
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestReOptimizeReroutedClassCutsOver: a class moved onto other switches by
// a path of the same length commits as a full make-before-break cutover,
// like a changed chain, at its old rate and at +30 %. Its sub-classes keep
// their hop indices, and a comparison of those alone judged the move
// unchanged — packets entering at the new ingress were delivered through
// no NF — or rate-only, which recorded the new path over rules left on the
// old one, so enforcement failed at the new ingress. The routes only the
// old path used, toward switch 2, are gone; the new path's stand.
func TestReOptimizeReroutedClassCutsOver(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{{"same-rate", 300}, {"rate+30%", 390}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := core.Class{ID: 0, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 300}
			c, prob, _, _ := setup(t, []core.Class{cl})
			handler, err := NewDynamicHandler(c)
			if err != nil {
				t.Fatal(err)
			}
			moved := cl
			moved.Path = []topology.NodeID{1, 2, 3}
			moved.RateMbps = tc.rate
			next := &core.Problem{Topo: prob.Topo, Classes: []core.Class{moved}, Avail: prob.Avail}
			pl, err := core.NewEngine(core.EngineOptions{}).Solve(next)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.ReOptimize(next, pl, ReoptOptions{Verify: true, Audit: handler.CheckInvariants})
			if err != nil {
				t.Fatalf("ReOptimize: %v", err)
			}
			if rep.Updated != 1 || rep.RateOnly != 0 || rep.Unchanged != 0 {
				t.Errorf("report %+v, want one update", *rep)
			}
			hdr, err := c.FlowHeader(0, 5)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := c.Forward(hdr, moved.Path[0])
			if err != nil || !tr.Delivered || len(tr.Instances) != 1 {
				t.Errorf("walk from switch %d: trace %+v, err %v; want the firewall visited", moved.Path[0], tr, err)
			} else if nf, err := c.InstanceNF(tr.Instances[0]); err != nil || nf != policy.Firewall {
				t.Errorf("walk from switch %d visited %v (%v), want the firewall", moved.Path[0], nf, err)
			}
			if err := c.CheckEnforcement(); err != nil {
				t.Errorf("CheckEnforcement: %v", err)
			}
			wantRoutes(t, c, "after the cutover", 2)
			wantRoutes(t, c, "after the cutover", 3, 1, 2, 3)
		})
	}
}

// TestTxnStageRemoveDirect exercises the staging API directly.
func TestTxnStageRemoveDirect(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	txn := c.Begin()
	txn.StageRemove(2)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if txn.Removed() == 0 {
		t.Error("removal should account removed rules")
	}
	if _, err := c.Assignment(2); err == nil {
		t.Error("class 2 should be gone")
	}
	assertNoClassRules(t, c, 2)
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestTxnAtomicAcrossOps: one failing staged op unwinds the ops that had
// already committed — the transaction is all-or-nothing even without
// fault injection.
func TestTxnAtomicAcrossOps(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	pre := c.Snapshot().String()
	txn := c.Begin()
	txn.StageAdd(core.Class{ID: 7, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100})
	txn.StageRemove(99) // not installed — commit must fail
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Fatal("commit with a bad removal should fail")
	}
	if _, err := c.Assignment(7); err == nil {
		t.Error("unwound add left class 7 installed")
	}
	if post := c.Snapshot().String(); post != pre {
		t.Errorf("state changed across unwind: %s", firstDiff(pre, post))
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
}

// TestTxnDoubleCommit: a finished transaction refuses reuse.
func TestTxnDoubleCommit(t *testing.T) {
	c, _, _, _ := setup(t, reoptClasses())
	txn := c.Begin()
	txn.StageRemove(2)
	if err := txn.Commit(TxnOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Error("second Commit should fail")
	}
}

// TestDropFromPoolClearsTail: regression for the pool-truncation leak —
// the slots beyond the kept prefix must not keep aliasing dropped
// instances through the shared backing array.
func TestDropFromPoolClearsTail(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := linePath(4)[1]
	i1, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	c.poolAdd(v, policy.Firewall, i1)
	c.poolAdd(v, policy.Firewall, i2)
	orig := c.instPool[v][policy.Firewall]
	if len(orig) != 2 {
		t.Fatalf("pool size %d, want 2", len(orig))
	}
	c.dropFromPool(i1.ID(), nil)
	if got := len(c.instPool[v][policy.Firewall]); got != 1 {
		t.Fatalf("pool size after drop %d, want 1", got)
	}
	if orig[1] != nil {
		t.Error("truncated tail still pins the dropped instance")
	}
}

// TestRepoolInstanceClearsTail: same aliasing hazard on the repool path.
func TestRepoolInstanceClearsTail(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := linePath(4)[1]
	i1, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := c.orch.PlaceNow(policy.Firewall, v)
	if err != nil {
		t.Fatal(err)
	}
	c.poolAdd(v, policy.Firewall, i1)
	c.poolAdd(v, policy.Firewall, i2)
	orig := c.instPool[v][policy.Firewall]
	if err := i2.Reconfigure(policy.NAT); err != nil {
		t.Fatal(err)
	}
	c.repoolInstance(v, i2, nil)
	if got := len(c.instPool[v][policy.Firewall]); got != 1 {
		t.Fatalf("firewall bucket size %d, want 1", got)
	}
	if got := len(c.instPool[v][policy.NAT]); got != 1 {
		t.Fatalf("nat bucket size %d, want 1", got)
	}
	if orig[1] != nil {
		t.Error("old bucket's truncated tail still pins the moved instance")
	}
}

// TestRepoolUnwinds: re-bucketing inside a transaction — a reconfigured
// instance moving buckets, a new one joining — is taken back by unwind.
func TestRepoolUnwinds(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := linePath(4)[1]
	var insts []*vnf.Instance
	for range 3 {
		inst, _, err := c.orch.PlaceNow(policy.Firewall, v)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	c.poolAdd(v, policy.Firewall, insts[0])
	c.poolAdd(v, policy.Firewall, insts[1])
	if err := insts[0].Reconfigure(policy.NAT); err != nil {
		t.Fatal(err)
	}
	want := c.Snapshot().String()
	txn := c.Begin()
	c.repoolInstance(v, insts[0], txn)
	c.repoolInstance(v, insts[2], txn)
	txn.StageRemove(99) // fails the commit
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Fatal("commit should fail")
	}
	if got := c.Snapshot().String(); got != want {
		t.Fatalf("pool after unwind: %s", firstDiff(want, got))
	}
}

// TestUpdateKeepsUnchangedSteering: an update cuts over only the
// sub-classes whose steering changes. Class 0's firewall sub-classes at
// hops 0, 1 and 2 become 0, 1 and 3, on one firewall per switch, so the
// first two keep their path, hops, tags and instances: the cutover applies
// no batch to their hosts' steering tables, and their rules stand as
// installed, while the third moves from host 2 to host 3.
func TestUpdateKeepsUnchangedSteering(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	for v := topology.NodeID(0); v < 4; v++ {
		inst, _, err := c.orch.PlaceNow(policy.Firewall, v)
		if err != nil {
			t.Fatal(err)
		}
		c.poolAdd(v, policy.Firewall, inst)
	}
	cl := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 400}
	dist := func(hops ...int) [][]float64 {
		d := zeroDist(4, 1)
		for i, h := range hops {
			d[h][0] = []float64{0.25, 0.25, 0.5}[i]
		}
		return d
	}
	txn := c.Begin()
	txn.StageInstall(cl, dist(0, 1, 2))
	if err := txn.Commit(TxnOptions{Verify: true}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.assign.get(0)
	kept := map[tableKey]bool{steeringKey(0): true, steeringKey(1): true}
	steering := func() []TableSnapshot {
		var out []TableSnapshot
		for _, tbl := range c.Snapshot().Tables {
			if tbl.VSwitch && (tbl.Node == 0 || tbl.Node == 1) {
				out = append(out, tbl)
			}
		}
		return out
	}
	before := steering()

	txn = c.Begin()
	txn.StageUpdate(cl, dist(0, 1, 3))
	var touched []tableKey
	c.failpoint = func(p string) error {
		if p == "update:verify:0" {
			for _, u := range txn.undo {
				touched = append(touched, u.key)
			}
		}
		return nil
	}
	if err := txn.Commit(TxnOptions{Verify: true, Audit: handler.CheckInvariants}); err != nil {
		t.Fatal(err)
	}
	c.failpoint = nil
	next, _ := c.assign.get(0)
	for s := 0; s < 3; s++ {
		same := old.subs[s].tag == next.subs[s].tag &&
			reflect.DeepEqual(old.Subclass(s).Hops, next.Subclass(s).Hops) &&
			reflect.DeepEqual(old.Instances(s), next.Instances(s))
		if same != (s < 2) {
			t.Fatalf("fixture: sub-class %d: hops %v → %v, instances %v → %v", s,
				old.Subclass(s).Hops, next.Subclass(s).Hops, old.Instances(s), next.Instances(s))
		}
	}
	if len(touched) == 0 {
		t.Fatal("the update applied no batch")
	}
	for _, k := range touched {
		if kept[k] {
			t.Errorf("the update applied a batch to %+v, which only kept sub-classes use", k)
		}
	}
	if !reflect.DeepEqual(steering(), before) {
		t.Error("the kept sub-classes' steering rules changed")
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateKeepsUnchangedClassification: an update whose classification
// compiles to the installed rules leaves them standing. Class 0's one
// sub-class keeps its firewall at the ingress and moves its IDS from host
// 1 to host 2: the ingress, the tag, the first-hop switch and the split
// blocks are unchanged, so the cutover's flip applies no batch — no
// cls-0 rule is removed or reinstalled — though its failpoint still
// fires, and the class is enforced on its new steering.
func TestUpdateKeepsUnchangedClassification(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v := topology.NodeID(0); v < 4; v++ {
		for _, nf := range []policy.NF{policy.Firewall, policy.IDS} {
			inst, _, err := c.orch.PlaceNow(nf, v)
			if err != nil {
				t.Fatal(err)
			}
			c.poolAdd(v, nf, inst)
		}
	}
	cl := core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 200}
	dist := func(ids int) [][]float64 {
		d := zeroDist(4, 2)
		d[0][0], d[ids][1] = 1, 1
		return d
	}
	txn := c.Begin()
	txn.StageInstall(cl, dist(1))
	if err := txn.Commit(TxnOptions{Verify: true}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.assign.get(0)
	updates := c.RuleUpdates()

	txn = c.Begin()
	txn.StageUpdate(cl, dist(2))
	var touched []tableUndo
	flips := 0
	c.failpoint = func(p string) error {
		switch p {
		case "cutover:cls:0":
			flips++
		case "update:verify:0":
			touched = append(touched, txn.undo...)
		}
		return nil
	}
	if err := txn.Commit(TxnOptions{Verify: true}); err != nil {
		t.Fatal(err)
	}
	c.failpoint = nil
	next, _ := c.assign.get(0)
	if len(old.subs) != 1 || len(next.subs) != 1 || old.subs[0].tag != next.subs[0].tag ||
		!reflect.DeepEqual(old.Subclass(0).Hops, []int{0, 1}) || !reflect.DeepEqual(next.Subclass(0).Hops, []int{0, 2}) {
		t.Fatalf("fixture: sub-classes %d → %d, hops %v → %v", len(old.subs), len(next.subs),
			old.Subclass(0).Hops, next.Subclass(0).Hops)
	}
	if flips != 1 {
		t.Errorf("the cutover:cls failpoint fired %d times, want once", flips)
	}
	if len(touched) == 0 {
		t.Fatal("the update applied no batch")
	}
	for _, u := range touched {
		if u.key == appleKey(0) && u.token.Removed() > 0 {
			t.Errorf("the update removed %d rules from the ingress APPLE table; its classification is unchanged", u.token.Removed())
		}
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
	t.Logf("the update programmed %d rules", c.RuleUpdates()-updates)
}
