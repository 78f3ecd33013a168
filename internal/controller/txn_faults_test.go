package controller

// Fault-injection suite for the rule-transaction unwind contract: a
// failure at ANY commit step must leave the controller byte-identical to
// its pre-transaction state (excluding monotone telemetry — metrics
// counters, the rule-update odometer, and the trace journal record that
// the TCAMs really were programmed and unprogrammed).

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

var errInjected = errors.New("injected fault")

func fmtPtr[T any](p *T) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprint(*p)
}

// fmtRule renders a rule with its match pointers dereferenced, so two
// semantically identical tables produce identical digests.
func fmtRule(r flowtable.Rule) string {
	m := r.Match
	return fmt.Sprintf("%s p%d ht=%s st=%s in=%s src=%s dst=%s proto=%s sp=%s dp=%s act=%v",
		r.Name, r.Priority, fmtPtr(m.HostTag), fmtPtr(m.SubTag), fmtPtr(m.InPort),
		fmtPtr(m.Src), fmtPtr(m.Dst), fmtPtr(m.Proto), fmtPtr(m.SrcPort), fmtPtr(m.DstPort),
		r.Actions)
}

// stateDigest serializes every piece of controller state the unwind
// contract covers: assignments, portion ledger, global tags, instance
// pools, orchestrator inventory, host resource usage, and every rule of
// every switch and vSwitch table.
func stateDigest(t *testing.T, c *Controller) string {
	t.Helper()
	var b strings.Builder

	for _, a := range c.assign.sorted() {
		fmt.Fprintf(&b, "class %d: cl=%+v prefix=%v subs=%v w=%v base=%v inst=%v global=%v tags=%v\n",
			int(a.Class.ID), a.Class, a.Prefix, a.Subclasses, a.Weights, a.Base, a.Instances, a.Global, a.SubTags)
	}

	pids := make([]string, 0, len(c.instPortion))
	for id := range c.instPortion {
		pids = append(pids, string(id))
	}
	sort.Strings(pids)
	for _, id := range pids {
		fmt.Fprintf(&b, "portion %s=%.9f\n", id, c.instPortion[vnf.ID(id)])
	}

	tagNodes := make([]int, 0, len(c.hostGlobalTags))
	for v := range c.hostGlobalTags {
		tagNodes = append(tagNodes, int(v))
	}
	sort.Ints(tagNodes)
	for _, vi := range tagNodes {
		tags := c.hostGlobalTags[topology.NodeID(vi)]
		keys := make([]int, 0, len(tags))
		for tag, on := range tags {
			if on {
				keys = append(keys, int(tag))
			}
		}
		sort.Ints(keys)
		fmt.Fprintf(&b, "gtags %d=%v\n", vi, keys)
	}

	poolNodes := make([]int, 0, len(c.instPool))
	for v := range c.instPool {
		poolNodes = append(poolNodes, int(v))
	}
	sort.Ints(poolNodes)
	for _, vi := range poolNodes {
		byNF := c.instPool[topology.NodeID(vi)]
		nfs := make([]int, 0, len(byNF))
		for nf := range byNF {
			nfs = append(nfs, int(nf))
		}
		sort.Ints(nfs)
		for _, nfi := range nfs {
			var names []string
			for _, inst := range byNF[policy.NF(nfi)] {
				names = append(names, string(inst.ID()))
			}
			fmt.Fprintf(&b, "pool %d/%d=%v\n", vi, nfi, names)
		}
	}

	fmt.Fprintf(&b, "orch=%v\n", c.orch.Instances())
	hostNodes := make([]int, 0, len(c.hosts))
	for v := range c.hosts {
		hostNodes = append(hostNodes, int(v))
	}
	sort.Ints(hostNodes)
	for _, vi := range hostNodes {
		fmt.Fprintf(&b, "hostres %d=%+v\n", vi, c.hosts[topology.NodeID(vi)].Used())
	}

	swNodes := make([]int, 0, len(c.switches))
	for v := range c.switches {
		swNodes = append(swNodes, int(v))
	}
	sort.Ints(swNodes)
	for _, vi := range swNodes {
		pl := c.switches[topology.NodeID(vi)].Pipeline
		for ti := 0; ti < pl.NumTables(); ti++ {
			tbl, err := pl.Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tbl.Rules() {
				fmt.Fprintf(&b, "sw %d/%d %s\n", vi, ti, fmtRule(r))
			}
		}
	}
	for _, vi := range hostNodes {
		pl := c.hosts[topology.NodeID(vi)].VSwitch()
		for ti := 0; ti < pl.NumTables(); ti++ {
			tbl, err := pl.Table(ti)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tbl.Rules() {
				fmt.Fprintf(&b, "vsw %d/%d %s\n", vi, ti, fmtRule(r))
			}
		}
	}
	return b.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n  pre:  %s\n  post: %s", i+1, x, y)
		}
	}
	return ""
}

// txnFixture is a controller with three installed classes plus a staged
// five-op transaction exercising every op kind: a greedy add (NAT,
// global tags, in-txn provisioning), a placement-driven install, a full
// cutover update that moves class 0's hops, a rate-only refresh, and a
// removal.
type txnFixture struct {
	c       *Controller
	handler *DynamicHandler
	stage   func(*RuleTxn)
}

func zeroDist(hops, chain int) [][]float64 {
	d := make([][]float64, hops)
	for h := range d {
		d[h] = make([]float64, chain)
	}
	return d
}

func newTxnFixture(t *testing.T) *txnFixture {
	t.Helper()
	g := lineTopo(t, 4)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range reoptClasses() {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-provision firewall+IDS at a switch class 0 does not currently
	// use, so the staged update genuinely moves its steering rules.
	cl0 := reoptClasses()[0]
	a0, ok := c.assign.get(0)
	if !ok {
		t.Fatal("class 0 not installed")
	}
	newHop := 1
	if a0.Subclasses[0].Hops[0] == 1 {
		newHop = 2
	}
	v2 := cl0.Path[newHop]
	for _, nf := range []policy.NF{policy.Firewall, policy.IDS} {
		inst, _, err := c.orch.PlaceNow(nf, v2)
		if err != nil {
			t.Fatalf("PlaceNow(%v,%d): %v", nf, v2, err)
		}
		c.poolAdd(v2, nf, inst)
	}

	cl0u := cl0
	cl0u.RateMbps = 600
	dist0 := zeroDist(len(cl0.Path), len(cl0.Chain))
	for j := range cl0.Chain {
		dist0[newHop][j] = 1
	}
	cl4 := core.Class{ID: 4, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 120}
	dist4 := zeroDist(4, 1)
	dist4[newHop][0] = 1
	cl5 := core.Class{ID: 5, Path: linePath(4), Chain: policy.Chain{policy.NAT}, RateMbps: 200}
	cl1r := reoptClasses()[1]
	cl1r.RateMbps = 300

	return &txnFixture{c: c, handler: handler, stage: func(txn *RuleTxn) {
		txn.StageAdd(cl5)
		txn.StageInstall(cl4, dist4)
		txn.StageUpdate(cl0u, dist0)
		txn.StageRefresh(cl1r)
		txn.StageRemove(2)
	}}
}

func (fx *txnFixture) opts() TxnOptions {
	return TxnOptions{Verify: true, Audit: fx.handler.CheckInvariants}
}

// faultRoute is one transactional entry point under fault injection: a
// fresh controller, the call under test, and the call's contract.
type faultRoute struct {
	c       *Controller
	handler *DynamicHandler
	run     func() error
	// kept, when set, names the classes of the call that by contract stay
	// installed when failpoint pt aborts run. Only AddClassBatch ever
	// keeps any: the classes admitted before an admission failure.
	kept func(pt string) []core.Class
}

// faultRoutes lists every entry point that installs new classes.
var faultRoutes = []struct {
	name string
	new  func(*testing.T) *faultRoute
}{
	// The five-op transaction of txnFixture, committed directly.
	{"commit", func(t *testing.T) *faultRoute {
		fx := newTxnFixture(t)
		return &faultRoute{c: fx.c, handler: fx.handler, run: func() error {
			txn := fx.c.Begin()
			fx.stage(txn)
			return txn.Commit(fx.opts())
		}}
	}},
	// A three-class AddClassBatch (NAT with global tags and in-txn
	// provisioning first) on top of the fixture's installed classes.
	{"batch", func(t *testing.T) *faultRoute {
		fx := newTxnFixture(t)
		batch := []core.Class{
			{ID: 5, Path: linePath(4), Chain: policy.Chain{policy.NAT}, RateMbps: 200},
			{ID: 4, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 120},
			{ID: 6, Path: linePath(3), Chain: policy.Chain{policy.Proxy, policy.IDS}, RateMbps: 80},
		}
		return &faultRoute{c: fx.c, handler: fx.handler,
			run: func() error { return fx.c.AddClassBatch(batch, BatchOptions{Workers: 2, Verify: true}) },
			kept: func(pt string) []core.Class {
				for i, cl := range batch {
					if pt == fmt.Sprintf("add:plan:%d", cl.ID) || pt == fmt.Sprintf("add:admit:%d", cl.ID) {
						return batch[:i]
					}
				}
				return nil
			}}
	}},
	{"placement", newPlacementRoute},
	{"reshaped", newReshapedRoute},
}

// newReshapedRoute commits over classes the Dynamic Handler has reshaped:
// a surge on classes 0 and 1 leaves each with a spawned sub-class the
// planner never knew (steering rules vsw-<id>-1 included), and the
// transaction then removes class 0, cuts class 1 over to a switch it does
// not use yet, and admits a new class. Removal derives its rule names from
// the assignment and the cutover diffs per-table batches, so both must
// cover — and on a fault restore — the handler-added sub-class.
func newReshapedRoute(t *testing.T) *faultRoute {
	t.Helper()
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 450},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 300},
		{ID: 2, Path: linePath(3), Chain: policy.Chain{policy.Proxy}, RateMbps: 100},
	}
	c, _, _, clock := setup(t, classes)
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handler.Observe(map[core.ClassID]float64{0: 1600, 1: 1200}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := clock.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.ClassID{0, 1} {
		if a, _ := c.assign.get(id); len(a.Subclasses) <= len(a.Base) {
			t.Fatalf("fixture: class %d was not reshaped: %d sub-classes", id, len(a.Subclasses))
		}
	}
	// Class 1 moves to the next switch down its path, where its chain's
	// instances are provisioned ahead of the transaction.
	a1, _ := c.assign.get(1)
	newHop := a1.Subclasses[0].Hops[0] + 1
	for _, nf := range classes[1].Chain {
		inst, _, err := c.orch.PlaceNow(nf, classes[1].Path[newHop])
		if err != nil {
			t.Fatalf("PlaceNow(%v): %v", nf, err)
		}
		c.poolAdd(classes[1].Path[newHop], nf, inst)
	}
	dist1 := zeroDist(len(classes[1].Path), len(classes[1].Chain))
	for j := range classes[1].Chain {
		dist1[newHop][j] = 1
	}
	cl5 := core.Class{ID: 5, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 120}
	return &faultRoute{c: c, handler: handler, run: func() error {
		txn := c.Begin()
		txn.StageAdd(cl5)
		txn.StageUpdate(a1.Class, dist1)
		txn.StageRemove(0)
		return txn.Commit(TxnOptions{Verify: true, Audit: handler.CheckInvariants})
	}}
}

// newPlacementRoute is InstallPlacement on an empty controller: instance
// provisioning and the pass-by rules are inside the transaction too. The
// short paths spread the placement over three switches.
func newPlacementRoute(t *testing.T) *faultRoute {
	t.Helper()
	g := lineTopo(t, 4)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
		{ID: 1, Path: []topology.NodeID{0, 1}, Chain: policy.Chain{policy.Proxy}, RateMbps: 250},
		{ID: 2, Path: []topology.NodeID{1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 150},
		{ID: 3, Path: []topology.NodeID{2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 150},
		{ID: 4, Path: []topology.NodeID{3, 2}, Chain: policy.Chain{policy.Proxy}, RateMbps: 150},
		{ID: 5, Path: []topology.NodeID{1, 0}, Chain: policy.Chain{policy.NAT}, RateMbps: 150},
	}
	prob := &core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	return &faultRoute{c: c, handler: handler, run: func() error { return c.InstallPlacement(prob, pl) }}
}

// probeFailpoints makes the route's call with a recording failpoint hook
// and returns every point that fired, in order.
func probeFailpoints(t *testing.T, newRoute func(*testing.T) *faultRoute) []string {
	t.Helper()
	fx := newRoute(t)
	var points []string
	fx.c.failpoint = func(p string) error {
		points = append(points, p)
		return nil
	}
	if err := fx.run(); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if err := fx.c.CheckEnforcement(); err != nil {
		t.Fatalf("probe enforcement: %v", err)
	}
	return points
}

// TestTxnFailpointCoverage pins the set of commit steps the injection
// suite exercises: every stage boundary of every op kind must fire, on
// every entry point that reaches it.
func TestTxnFailpointCoverage(t *testing.T) {
	required := map[string][]string{
		"commit": {
			"add:plan:5", "add:admit:5", "add:emit:5", "add:apply:5", "add:verify:5",
			"install:plan:4", "add:admit:4", "add:emit:4", "add:apply:4", "add:verify:4",
			"update:plan:0", "update:build:0", "update:steer:0",
			"update:swap:0", "update:retire:0", "update:verify:0",
			"refresh:swap:1",
			"remove:emit:2", "remove:cls:2", "remove:steer:2", "remove:unregister:2",
		},
		"batch": {
			"add:plan:5", "add:admit:5", "add:emit:5", "add:apply:5", "add:verify:5",
			"add:plan:4", "add:admit:4", "add:emit:4", "add:apply:4", "add:verify:4",
			"add:plan:6", "add:admit:6", "add:emit:6", "add:apply:6", "add:verify:6",
		},
		"placement": {
			"install:plan:0", "add:admit:0", "add:emit:0", "add:apply:0",
			"install:plan:1", "add:admit:1", "add:emit:1", "add:apply:1",
			"install:plan:5", "add:admit:5", "add:emit:5", "add:apply:5",
		},
		"reshaped": {
			"add:plan:5", "add:admit:5", "add:emit:5", "add:apply:5", "add:verify:5",
			"update:plan:1", "update:build:1", "update:steer:1", "update:cls:1",
			"update:swap:1", "update:retire:1", "update:verify:1",
			"remove:emit:0", "remove:cls:0", "remove:steer:0", "remove:unregister:0",
		},
	}
	for _, route := range faultRoutes {
		points := probeFailpoints(t, route.new)
		fired := make(map[string]bool, len(points))
		for _, p := range points {
			fired[p] = true
		}
		for _, p := range required[route.name] {
			if !fired[p] {
				t.Errorf("%s: failpoint %q did not fire (fired: %v)", route.name, p, points)
			}
		}
	}
}

// TestTxnUnwindRestoresStateAtEveryFailpoint injects a failure at each
// step of each entry point in turn, on a fresh fixture each time, and
// asserts the controller afterwards is byte-identical to its pre-call
// state — or, for an admission failure inside AddClassBatch, to a
// controller that only ever installed the classes before the failing one —
// and passes the Dynamic Handler's invariant audit.
func TestTxnUnwindRestoresStateAtEveryFailpoint(t *testing.T) {
	for _, route := range faultRoutes {
		points := probeFailpoints(t, route.new)
		if len(points) == 0 {
			t.Fatalf("%s: no failpoints fired", route.name)
		}
		for _, pt := range points {
			t.Run(route.name+"/"+pt, func(t *testing.T) {
				fx := route.new(t)
				want := stateDigest(t, fx.c)
				if fx.kept != nil && len(fx.kept(pt)) > 0 {
					ref := route.new(t)
					if err := ref.c.AddClassBatch(fx.kept(pt), BatchOptions{}); err != nil {
						t.Fatalf("reference install: %v", err)
					}
					want = stateDigest(t, ref.c)
				}
				fx.c.failpoint = func(p string) error {
					if p == pt {
						return errInjected
					}
					return nil
				}
				if err := fx.run(); !errors.Is(err, errInjected) {
					t.Fatalf("run = %v, want injected fault", err)
				}
				if got := stateDigest(t, fx.c); got != want {
					t.Errorf("state after fault at %s: %s", pt, firstDiff(want, got))
				}
				if err := fx.handler.CheckInvariants(); err != nil {
					t.Errorf("CheckInvariants after unwind: %v", err)
				}
				if err := fx.c.CheckEnforcement(); err != nil {
					t.Errorf("CheckEnforcement after unwind: %v", err)
				}
			})
		}
	}
}

// TestJournalShapeOnEveryEntryPoint: whichever entry point runs the
// pipeline, and whether it commits or a fault unwinds it, the journal has
// one shape — txn.begin exactly once, then per pipeline run the classes'
// flow.emit followed by one class-less flow.apply per device table, then
// txn.commit or txn.unwind.
func TestJournalShapeOnEveryEntryPoint(t *testing.T) {
	for _, route := range faultRoutes {
		for _, faulted := range []bool{false, true} {
			fx := route.new(t)
			rec, err := trace.NewRecorder(fx.c.clock, 0)
			if err != nil {
				t.Fatal(err)
			}
			fx.c.tracer = rec
			if faulted {
				fx.c.failpoint = func(p string) error {
					if strings.HasPrefix(p, "add:verify") || strings.HasPrefix(p, "add:apply:5") {
						return errInjected
					}
					return nil
				}
			}
			if err := fx.run(); (err != nil) != faulted {
				t.Fatalf("%s faulted=%v: run = %v", route.name, faulted, err)
			}
			var txn []trace.Kind
			applies := 0
			events := rec.Events()
			for i, ev := range events {
				switch ev.Kind {
				case trace.KindTxnBegin, trace.KindTxnCommit, trace.KindTxnUnwind:
					txn = append(txn, ev.Kind)
				case trace.KindFlowEmit:
					if ev.Class == trace.NoID {
						t.Errorf("%s: flow.emit without a class: %+v", route.name, ev)
					}
				case trace.KindFlowApply:
					applies++
					if ev.Class != trace.NoID || ev.Node == trace.NoID {
						t.Errorf("%s: flow.apply must name a switch and no class: %+v", route.name, ev)
					}
					if prev := events[i-1].Kind; prev != trace.KindFlowEmit && prev != trace.KindFlowApply {
						t.Errorf("%s: flow.apply follows %s, want the run's flow.emit block", route.name, prev)
					}
				}
			}
			want := []trace.Kind{trace.KindTxnBegin, trace.KindTxnCommit}
			if faulted {
				want[1] = trace.KindTxnUnwind
			}
			if !reflect.DeepEqual(txn, want) {
				t.Errorf("%s faulted=%v: transaction events %v, want %v", route.name, faulted, txn, want)
			}
			if !faulted && applies == 0 {
				t.Errorf("%s: committed run journaled no flow.apply", route.name)
			}
		}
	}
}

// TestInstallPlacementDeterministic: the same placement installed on
// fresh controllers with the same seed must leave byte-identical state —
// instance IDs included, which depend on the order instances are
// provisioned in. The placement spans three switches, so provisioning it
// in map order fails this.
func TestInstallPlacementDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		fx := newPlacementRoute(t)
		if err := fx.run(); err != nil {
			t.Fatal(err)
		}
		if n := len(fx.c.instPool); n < 3 {
			t.Fatalf("placement provisions at %d switches, want >= 3", n)
		}
		got := stateDigest(t, fx.c)
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs from run 0: %s", run, firstDiff(first, got))
		}
	}
}

// TestTxnUnwindSurvivesCancelFailure: a lost cancel RPC during unwind
// must not stop the rest of the restore — the instance leaks in the
// orchestrator (as a real lost RPC would) but every piece of controller
// state still rolls back.
func TestTxnUnwindSurvivesCancelFailure(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.orch.InjectFaults(orchestrator.FaultPlan{CancelFailOn: []int{1}}); err != nil {
		t.Fatal(err)
	}
	txn := c.Begin()
	txn.StageAdd(core.Class{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 100})
	txn.StageRemove(99) // forces the commit to fail after the add landed
	if err := txn.Commit(TxnOptions{}); err == nil {
		t.Fatal("commit should fail")
	}
	if _, err := c.Assignment(0); err == nil {
		t.Error("unwound class 0 still installed")
	}
	for v, byNF := range c.instPool {
		for nf, insts := range byNF {
			if len(insts) != 0 {
				t.Errorf("pool %d/%v still holds %d instances after unwind", v, nf, len(insts))
			}
		}
	}
	if len(c.instPortion) != 0 {
		t.Errorf("portion ledger not empty after unwind: %v", c.instPortion)
	}
}

// TestAddClassBatchAdmitFailureKeepsPrefix: an admission failure mid-batch
// preserves the AddClass loop's postcondition — classes admitted before
// the failure stay installed, the failing class leaves nothing behind, and
// no provisioned instance leaks.
func TestAddClassBatchAdmitFailureKeepsPrefix(t *testing.T) {
	c, err := New(Config{Topology: lineTopo(t, 4), Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Proxy}, RateMbps: 150},
		// Rate far beyond what the line's hosts can serve: admission fails.
		{ID: 2, Path: linePath(4), Chain: policy.Chain{policy.IDS}, RateMbps: 1e9},
	}
	if err := c.AddClassBatch(classes, BatchOptions{Verify: true}); err == nil {
		t.Fatal("batch with an unplaceable class should fail")
	}
	for _, id := range []core.ClassID{0, 1} {
		if _, err := c.Assignment(id); err != nil {
			t.Errorf("Assignment(%d): %v — prefix classes must stay installed", id, err)
		}
	}
	if _, err := c.Assignment(2); err == nil {
		t.Error("failed class 2 should not be installed")
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Errorf("CheckEnforcement: %v", err)
	}
	// No orphans: everything the orchestrator runs is pooled, and
	// everything pooled is a running instance the orchestrator knows.
	pooled := 0
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			pooled += len(insts)
		}
	}
	if orch := len(c.orch.Instances()); orch != pooled {
		t.Errorf("orchestrator runs %d instances but pool holds %d — leak", orch, pooled)
	}
}

// TestAddClassBatchLateRefusalMatchesLoop: a class refused late in
// admission — here the 33rd NAT class through one host, after instance
// picks charged the portion ledger, when no global tag is left — must
// leave no trace, so the batch ends byte-identical to the AddClass loop
// that stops at the same class.
func TestAddClassBatchLateRefusalMatchesLoop(t *testing.T) {
	fresh := func() *Controller {
		c, err := New(Config{Topology: lineTopo(t, 2), Clock: sim.New(), Seed: 7, HostSwitches: []topology.NodeID{0}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var classes []core.Class
	for id := core.ClassID(0); id < 40; id++ {
		classes = append(classes, core.Class{ID: id, Path: linePath(2), Chain: policy.Chain{policy.NAT}, RateMbps: 1})
	}
	loop := fresh()
	for _, cl := range classes {
		if err := loop.AddClass(cl); err != nil {
			break
		}
	}
	if n := len(loop.Classes()); n == 0 || n == len(classes) {
		t.Fatalf("loop installed %d of %d classes, want a refusal part-way", n, len(classes))
	}
	batch := fresh()
	if err := batch.AddClassBatch(classes, BatchOptions{}); err == nil {
		t.Fatal("batch with a refused class should return its admission error")
	}
	if want, got := stateDigest(t, loop), stateDigest(t, batch); got != want {
		t.Fatalf("batch differs from the loop: %s", firstDiff(want, got))
	}
}
