package controller

// Fault-injection suite for the rule-transaction unwind contract: a
// failure at ANY commit step must leave the controller byte-identical to
// its pre-transaction state (excluding monotone telemetry — metrics
// counters, the rule-update odometer, and the trace journal record that
// the TCAMs really were programmed and unprogrammed).

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

var errInjected = errors.New("injected fault")

// ledgerRestored compares the live portion ledger with a copy taken
// before a call that must leave it as it was. Snapshot derives its
// portions from the class records, so the digests no longer see the live
// ledger, which an unwind restores through assignStore.put and remove to
// within rounding: every old entry must be back to within 1e-9 relative
// (of at least 1), and an entry the call added must read at most 1e-9.
func ledgerRestored(before, after map[vnf.ID]float64) error {
	for _, id := range sortedKeys(before) {
		old := before[id]
		got, ok := after[id]
		if !ok || math.Abs(got-old) > 1e-9*math.Max(1, math.Abs(old)) {
			return fmt.Errorf("ledger entry of %s is %v (present %v), was %v", id, got, ok, old)
		}
	}
	for _, id := range sortedKeys(after) {
		if _, had := before[id]; !had && math.Abs(after[id]) > 1e-9 {
			return fmt.Errorf("ledger gained entry %s=%v", id, after[id])
		}
	}
	return nil
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
	if a0.Subclass(0).Hops[0] == 1 {
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

	return &txnFixture{c: c, handler: handler, stage: func(txn *RuleTxn) {
		txn.StageAdd(cl5)
		txn.StageInstall(cl4, dist4)
		txn.StageUpdate(cl0u, dist0)
		txn.StageRefresh(reoptClasses()[1].ID, 300)
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
	// expect, when set, returns the state a fault at pt must leave where
	// that is not the pre-call state ("" where it is). AddClassBatch keeps
	// the classes admitted before an admission failure; a failed spawn
	// activation disposes of its instance.
	expect func(t *testing.T, pt string) string
	// reshapes marks the Dynamic Handler's transitions: they commit
	// reshapes, which run no install pipeline.
	reshapes bool
}

// faultRoutes lists every entry point that mutates rules.
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
			run: func() error { return fx.c.AddClassBatch(batch, BatchOptions{Verify: true}) },
			expect: func(t *testing.T, pt string) string {
				for i, cl := range batch[1:] {
					if pt == fmt.Sprintf("add:plan:%d", cl.ID) || pt == fmt.Sprintf("add:admit:%d", cl.ID) {
						ref := newTxnFixture(t)
						if err := ref.c.AddClassBatch(batch[:i+1], BatchOptions{}); err != nil {
							t.Fatalf("reference install: %v", err)
						}
						return ref.c.Snapshot().String()
					}
				}
				return ""
			}}
	}},
	{"placement", newPlacementRoute},
	{"reshaped", newReshapedRoute},
	{"overload", newOverloadRoute},
	{"rollback", newRollbackRoute},
	{"activate", newActivateRoute},
	{"overload-nat", newNATOverloadRoute},
	{"retire", newRetireRoute},
}

// newRetireRoute is a transaction whose removals retire routes and
// re-point one. On the ring 0-1-2-3-0 with one host, at switch 0, class 0
// runs 0→1→2 and class 1 0→3→2, both processed at switch 0, so class 1 is
// enforced though switch 0's route-2 forwards it to switch 1, class 0's
// next hop; class 3 runs 1→0. The transaction admits class 2 (3→0), then
// removes class 0: switch 0's route-2 then follows class 1, its oldest
// holder left, and is re-pointed to switch 3, and no class crosses switch
// 1 toward switch 2, so its route retires. It removes class 3 last,
// retiring route-0 at switch 1, so a fault at any of class 3's steps
// unwinds class 0's retire step.
func newRetireRoute(t *testing.T) *faultRoute {
	t.Helper()
	c := ringController(t, 4, 0)
	for _, cl := range []core.Class{
		{ID: 0, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: []topology.NodeID{0, 3, 2}, Chain: policy.Chain{policy.IDS}, RateMbps: 200},
		{ID: 3, Path: []topology.NodeID{1, 0}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
	} {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	handler, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := core.Class{ID: 2, Path: []topology.NodeID{3, 0}, Chain: policy.Chain{policy.Proxy}, RateMbps: 100}
	return &faultRoute{c: c, handler: handler, run: func() error {
		txn := c.Begin()
		txn.StageAdd(cl2)
		txn.StageRemove(0)
		txn.StageRemove(3)
		return txn.Commit(TxnOptions{Verify: true, Audit: auditWith(c, handler)})
	}}
}

// newReshapedRoute commits over classes the Dynamic Handler has reshaped:
// a surge on classes 0 and 1 leaves each with a spawned sub-class the
// planner never knew (steering rules vsw-<id>-1 included), and the
// transaction then removes class 0, cuts class 1 over to a switch it does
// not use yet, and admits a new class. Both cutovers derive what to make
// and retire from the live assignment, so both must cover — and on a fault
// restore — the handler-added sub-class.
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
	clock.Run(6 * time.Second)
	for _, id := range []core.ClassID{0, 1} {
		if a, _ := c.assign.get(id); a.NumSubclasses() <= a.NumBase() {
			t.Fatalf("fixture: class %d was not reshaped: %d sub-classes", id, a.NumSubclasses())
		}
	}
	// Class 1 moves to the next switch down its path, where its chain's
	// instances are provisioned ahead of the transaction.
	a1, _ := c.assign.get(1)
	newHop := a1.Subclass(0).Hops[0] + 1
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

// repinSetup installs two firewall classes: class 0 nearly fills its
// instance while class 1's has headroom, so repinSurge overloads class 0's
// firewall and the handler re-pins the excess onto class 1's with a new
// sub-class and no spawn, and repinCalm rolls that back.
func repinSetup(t *testing.T) (*Controller, *DynamicHandler) {
	t.Helper()
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 800},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 900},
	}
	c, _, _, _ := setup(t, classes)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

var (
	repinSurge = map[core.ClassID]float64{0: 1200, 1: 100}
	repinCalm  = map[core.ClassID]float64{0: 300, 1: 100}
)

// observeOnce is a handler route's call: one Observe, which must handle
// exactly one transition.
func observeOnce(d *DynamicHandler, rates map[core.ClassID]float64) error {
	n, err := d.Observe(rates)
	if err == nil && n != 1 {
		return fmt.Errorf("Observe handled %d transitions, want 1", n)
	}
	return err
}

// newOverloadRoute is the handler's overload transition: class 0's
// reshape re-pins half its weight onto class 1's firewall, adding a
// sub-class and its steering.
func newOverloadRoute(t *testing.T) *faultRoute {
	t.Helper()
	c, d := repinSetup(t)
	return &faultRoute{c: c, handler: d, reshapes: true, run: func() error { return observeOnce(d, repinSurge) }}
}

// newNATOverloadRoute is an overload of the firewall two NAT classes
// share (natPairOnSharedFirewall): one transaction reshapes both, each
// re-pinned onto the idle firewall with a new global sub-class.
func newNATOverloadRoute(t *testing.T) *faultRoute {
	t.Helper()
	c, d := natPairOnSharedFirewall(t)
	return &faultRoute{c: c, handler: d, reshapes: true,
		run: func() error { return observeOnce(d, map[core.ClassID]float64{0: 700, 1: 700}) }}
}

// newRollbackRoute is the rollback that follows: class 0 returns to its
// base weights and drops the re-pinned sub-class.
func newRollbackRoute(t *testing.T) *faultRoute {
	t.Helper()
	c, d := repinSetup(t)
	if err := observeOnce(d, repinSurge); err != nil {
		t.Fatalf("overload: %v", err)
	}
	return &faultRoute{c: c, handler: d, reshapes: true, run: func() error { return observeOnce(d, repinCalm) }}
}

// spawnInFlight surges the lone firewall of faultySetup under plan: the
// overload commits and launches one failover instance, still booting.
func spawnInFlight(t *testing.T, plan orchestrator.FaultPlan) (*Controller, *DynamicHandler) {
	t.Helper()
	c, d, _ := faultySetup(t, plan)
	if err := observeOnce(d, map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatalf("overload: %v", err)
	}
	if n := d.PendingSpawns(); n != 1 {
		t.Fatalf("%d spawns in flight, want 1", n)
	}
	return c, d
}

// newActivateRoute is a spawn activation: the call runs the clock until
// the instance boots and its activation commits the new sub-class. The
// activation runs in a callback that keeps its error, so the route returns
// the first error a failpoint injected, and checks that a fault counts
// one activation unwind instead of an activation. A fault must leave what
// a failed boot leaves: the class as it was and the instance gone.
func newActivateRoute(t *testing.T) *faultRoute {
	t.Helper()
	c, d := spawnInFlight(t, orchestrator.FaultPlan{})
	run := func() error {
		var fired error
		if fp := c.failpoint; fp != nil {
			c.failpoint = func(p string) error {
				err := fp(p)
				if fired == nil {
					fired = err
				}
				return err
			}
		}
		unwinds, activations := d.Counters().Get(CtrActivationUnwinds), d.Counters().Get(CtrActivations)
		cClock(c).Run(6 * time.Second)
		wantUnwinds := uint64(0)
		if fired != nil {
			wantUnwinds = 1
		}
		du := d.Counters().Get(CtrActivationUnwinds) - unwinds
		da := d.Counters().Get(CtrActivations) - activations
		if du != wantUnwinds || da != 1-wantUnwinds {
			return fmt.Errorf("%s rose by %d and %s by %d; want %d and %d",
				CtrActivationUnwinds, du, CtrActivations, da, wantUnwinds, 1-wantUnwinds)
		}
		return fired
	}
	return &faultRoute{c: c, handler: d, reshapes: true, run: run,
		expect: func(t *testing.T, _ string) string {
			ref, refD := spawnInFlight(t, orchestrator.FaultPlan{BootFailOn: []int{1}})
			cClock(ref).Run(6 * time.Second)
			if refD.Counters().Get(CtrSpawnFailures) != 1 {
				t.Fatal("reference boot did not fail")
			}
			return ref.Snapshot().String()
		}}
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

// cutoverPoints are the four steps of one cutover of class id: make, flip,
// swap and retire.
func cutoverPoints(id int) []string {
	var pts []string
	for _, step := range []string{"steer", "cls", "swap", "retire"} {
		pts = append(pts, fmt.Sprintf("cutover:%s:%d", step, id))
	}
	return pts
}

// reshapePoints are the steps of one handler reshape of class 0.
var reshapePoints = cutoverPoints(0)

// TestTxnFailpointCoverage pins the set of commit steps the injection
// suite exercises: every stage boundary of every op kind must fire, on
// every entry point that reaches it. An update, a reshape and a removal
// are one cutover each, and every cutover fires all four of its steps.
func TestTxnFailpointCoverage(t *testing.T) {
	with := func(pts []string, more ...[]string) []string {
		for _, m := range more {
			pts = append(pts, m...)
		}
		return pts
	}
	required := map[string][]string{
		"commit": with([]string{
			"add:plan:5", "add:admit:5", "add:emit:5", "add:apply:5", "add:verify:5",
			"install:plan:4", "add:admit:4", "add:emit:4", "add:apply:4", "add:verify:4",
			"update:plan:0", "update:build:0", "update:verify:0",
			"refresh:swap:1",
		}, cutoverPoints(0), cutoverPoints(2)),
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
		"reshaped": with([]string{
			"add:plan:5", "add:admit:5", "add:emit:5", "add:apply:5", "add:verify:5",
			"update:plan:1", "update:build:1", "update:verify:1",
		}, cutoverPoints(1), cutoverPoints(0)),
		"overload":     reshapePoints,
		"rollback":     reshapePoints,
		"activate":     reshapePoints,
		"overload-nat": with(cutoverPoints(0), cutoverPoints(1)),
		"retire": with([]string{
			"add:plan:2", "add:admit:2", "add:emit:2", "add:apply:2", "add:verify:2",
		}, cutoverPoints(0), cutoverPoints(3)),
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

// failAt is a failpoint hook that injects a fault at pt alone.
func failAt(pt string) func(string) error {
	return func(p string) error {
		if p == pt {
			return errInjected
		}
		return nil
	}
}

// TestTxnUnwindRestoresStateAtEveryFailpoint injects a failure at each
// step of each entry point in turn, on a fresh fixture each time, and
// asserts the controller afterwards is byte-identical to its pre-call
// state — or to the route's expected state (AddClassBatch after an
// admission failure, a failed spawn activation) — and passes the Dynamic
// Handler's invariant audit.
func TestTxnUnwindRestoresStateAtEveryFailpoint(t *testing.T) {
	for _, route := range faultRoutes {
		points := probeFailpoints(t, route.new)
		if len(points) == 0 {
			t.Fatalf("%s: no failpoints fired", route.name)
		}
		for _, pt := range points {
			t.Run(route.name+"/"+pt, func(t *testing.T) {
				fx := route.new(t)
				want := fx.c.Snapshot().String()
				ledger := fx.c.assign.portions()
				if fx.expect != nil {
					if w := fx.expect(t, pt); w != "" {
						want, ledger = w, nil
					}
				}
				fx.c.failpoint = failAt(pt)
				if err := fx.run(); !errors.Is(err, errInjected) {
					t.Fatalf("run = %v, want injected fault", err)
				}
				if got := fx.c.Snapshot().String(); got != want {
					t.Errorf("state after fault at %s: %s", pt, firstDiff(want, got))
				}
				if ledger != nil {
					if err := ledgerRestored(ledger, fx.c.assign.portions()); err != nil {
						t.Errorf("after fault at %s: %v", pt, err)
					}
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

// TestTxnScratchIsolated: a transaction reuses the buffers of the one
// before it (Controller.spare) and the controller's step buffers, and
// neither carries anything from one transaction to the next.
//
// On one controller per entry point, every failpoint is injected twice in
// a row, and each unwind must restore the pre-call state byte for byte;
// the call then commits. A twin controller makes the same calls, each
// starting from fresh buffers, and must agree after every call. The
// reference has to fail as often: an unwound call still draws instance
// IDs and boot times from the orchestrator. Failpoints after which the route expects another state than the
// pre-call one — AddClassBatch's admission refusals, a failed activation
// — leave the next call something else to do; they run on fresh fixtures
// in TestTxnUnwindRestoresStateAtEveryFailpoint, after the fixtures' own
// commits have used the spare set.
func TestTxnScratchIsolated(t *testing.T) {
	for _, route := range faultRoutes {
		t.Run(route.name, func(t *testing.T) {
			points := probeFailpoints(t, route.new)
			fx, twin := route.new(t), route.new(t)
			want, ledger := fx.c.Snapshot().String(), fx.c.assign.portions()
			call := func(what string, failpoint func(string) error) error {
				t.Helper()
				fx.c.failpoint, twin.c.failpoint = failpoint, failpoint
				twin.c.spare = nil
				err, twinErr := fx.run(), twin.run()
				if (err == nil) != (twinErr == nil) {
					t.Fatalf("%s: %v, and from fresh buffers %v", what, err, twinErr)
				}
				if got, fresh := fx.c.Snapshot().String(), twin.c.Snapshot().String(); got != fresh {
					t.Fatalf("%s: state differs from fresh buffers': %s", what, firstDiff(fresh, got))
				}
				return err
			}
			for _, pt := range points {
				if fx.expect != nil && fx.expect(t, pt) != "" {
					continue
				}
				for run := 1; run <= 2; run++ {
					what := fmt.Sprintf("fault at %s, run %d", pt, run)
					if err := call(what, failAt(pt)); !errors.Is(err, errInjected) {
						t.Fatalf("%s: %v, want the injected fault", what, err)
					}
					if got := fx.c.Snapshot().String(); got != want {
						t.Fatalf("%s: %s", what, firstDiff(want, got))
					}
					if err := ledgerRestored(ledger, fx.c.assign.portions()); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
			}
			if err := call("commit after the faults", nil); err != nil {
				t.Fatalf("commit after the faults: %v", err)
			}
			if err := fx.c.CheckEnforcement(); err != nil {
				t.Errorf("CheckEnforcement after the commit: %v", err)
			}
		})
	}

	// Two transactions open at once: the second takes a fresh buffer set,
	// and the first ends — committed or unwound — after the second has
	// committed and given its set back.
	for _, commitA := range []bool{true, false} {
		t.Run(fmt.Sprintf("overlap/commitA=%v", commitA), func(t *testing.T) {
			fx := newTxnFixture(t)
			c := fx.c
			cl := core.Class{ID: 5, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 120}
			a := c.Begin()
			a.StageAdd(cl)
			b := c.Begin()
			if a.txnScratch == b.txnScratch {
				t.Fatal("two open transactions share one buffer set")
			}
			b.StageRemove(2)
			if err := b.Commit(fx.opts()); err != nil {
				t.Fatalf("commit B: %v", err)
			}
			afterB := c.Snapshot().String()
			if !commitA {
				c.failpoint = failAt("add:apply:5")
				if err := a.Commit(fx.opts()); !errors.Is(err, errInjected) {
					t.Fatalf("commit A = %v, want the injected fault", err)
				}
				if got := c.Snapshot().String(); got != afterB {
					t.Fatalf("unwinding A: %s", firstDiff(afterB, got))
				}
				c.failpoint = nil
				a = c.Begin()
				a.StageAdd(cl)
			}
			if err := a.Commit(fx.opts()); err != nil {
				t.Fatalf("commit A: %v", err)
			}
			ref := newTxnFixture(t)
			for _, stage := range []func(*RuleTxn){
				func(txn *RuleTxn) { txn.StageRemove(2) },
				func(txn *RuleTxn) { txn.StageAdd(cl) },
			} {
				txn := ref.c.Begin()
				stage(txn)
				if err := txn.Commit(ref.opts()); err != nil {
					t.Fatalf("reference: %v", err)
				}
			}
			if got, w := c.Snapshot().String(), ref.c.Snapshot().String(); got != w {
				t.Errorf("after B then A: %s", firstDiff(w, got))
			}
		})
	}

	// The step buffers are empty at every class boundary of a commit:
	// what a class delta compiled is dead once it stands.
	t.Run("steps", func(t *testing.T) {
		fx := newTxnFixture(t)
		txn := fx.c.Begin()
		fx.stage(txn)
		boundaries := 0
		audit := func() error {
			boundaries++
			if n := fx.c.steps.held(); n != 0 {
				return fmt.Errorf("class boundary %d: the step buffers hold %d entries", boundaries, n)
			}
			return fx.handler.CheckInvariants()
		}
		if err := txn.Commit(TxnOptions{Verify: true, Audit: audit}); err != nil {
			t.Fatal(err)
		}
		if boundaries != 5 {
			t.Fatalf("%d class boundaries, want one per staged delta (5)", boundaries)
		}
	})
}

// TestJournalShapeOnEveryEntryPoint: whichever entry point runs, and
// whether it commits or a fault unwinds it, the journal has one shape —
// txn.begin exactly once (one per handler transition), then per pipeline
// run the classes' flow.emit followed by one class-less flow.apply per
// device table, then txn.commit or txn.unwind.
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
					if strings.HasPrefix(p, "add:verify") || strings.HasPrefix(p, "add:apply:5") ||
						strings.HasPrefix(p, "cutover:retire") {
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
			if !faulted && !fx.reshapes && applies == 0 {
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
		got := fx.c.Snapshot().String()
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
	if ledger := c.assign.portions(); len(ledger) != 0 {
		t.Errorf("portion ledger not empty after unwind: %v", ledger)
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
	if want, got := loop.Snapshot().String(), batch.Snapshot().String(); got != want {
		t.Fatalf("batch differs from the loop: %s", firstDiff(want, got))
	}
}

// TestUnwindDropsAdmittedRefreshedClass: a transaction admits class 9,
// refreshes its rate and fails at a later removal's retire step. The
// unwind takes the admitted class out, its charges at the refreshed rate
// with it, and writes nothing back for the refresh: class 9 is gone, and
// the ledger and class 2 are as before the call.
func TestUnwindDropsAdmittedRefreshedClass(t *testing.T) {
	fx := newTxnFixture(t)
	c := fx.c
	ledger := c.assign.portions()
	cl := core.Class{ID: 9, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 120}
	c.failpoint = func(point string) error {
		if point == "cutover:retire:2" {
			return errInjected
		}
		return nil
	}
	txn := c.Begin()
	txn.StageAdd(cl)
	txn.StageRefresh(cl.ID, 300)
	txn.StageRemove(2)
	if err := txn.Commit(TxnOptions{}); !errors.Is(err, errInjected) {
		t.Fatalf("commit: %v, want the injected fault", err)
	}
	if c.assign.has(cl.ID) || !c.assign.has(2) {
		t.Fatalf("after the unwind class 9 installed %v, class 2 %v; want false, true", c.assign.has(cl.ID), c.assign.has(2))
	}
	if got := c.assign.portions(); !reflect.DeepEqual(got, ledger) {
		t.Errorf("the unwind left the ledger at %v, want %v", got, ledger)
	}
}
