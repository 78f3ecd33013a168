package controller

// Routes follow the class records: route-<dst> stands at a switch while
// some installed class crosses it toward dst, installed by the first such
// class's make step and removed by the last one's retire step.

import (
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// routeAt reports whether switch v carries the route toward dst.
func routeAt(t *testing.T, c *Controller, v, dst topology.NodeID) bool {
	t.Helper()
	tbl, err := c.switches[v].Pipeline.Table(TableRouting)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Has(c.switches[dst].route)
}

// wantRoutes fails unless the switches carrying the route toward dst are
// exactly the listed ones.
func wantRoutes(t *testing.T, c *Controller, when string, dst topology.NodeID, at ...topology.NodeID) {
	t.Helper()
	for _, v := range c.Switches() {
		want := false
		for _, u := range at {
			want = want || u == v
		}
		if got := routeAt(t, c, v, dst); got != want {
			t.Errorf("%s: route-%d at switch %d is %v, want %v", when, dst, v, got, want)
		}
	}
}

// removeClass commits the removal of class id, audited at the class
// boundary.
func removeClass(t *testing.T, c *Controller, id core.ClassID) {
	t.Helper()
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	txn := c.Begin()
	txn.StageRemove(id)
	if err := txn.Commit(TxnOptions{Verify: true, Audit: auditWith(c, d)}); err != nil {
		t.Fatalf("remove class %d: %v", id, err)
	}
}

// TestRemovalRetiresRoutes: on a 4-switch line, classes 0 (switches 0–3)
// and 1 (switches 2–3) share the route toward switch 3 at switches 2 and
// 3, and class 2 (switches 0–2) holds the route toward switch 2. Removing
// class 0 retires its route on switches 0 and 1, which only it crossed,
// and leaves the shared ones; removing class 1, the last class toward
// switch 3, retires the rest. Class 2's route never moves.
func TestRemovalRetiresRoutes(t *testing.T) {
	c, _, _, _ := setup(t, []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: []topology.NodeID{2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 150},
		{ID: 2, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Proxy}, RateMbps: 100},
	})
	mustAudit(t, c, "installed")
	wantRoutes(t, c, "installed", 3, 0, 1, 2, 3)
	wantRoutes(t, c, "installed", 2, 0, 1, 2)
	removeClass(t, c, 0)
	wantRoutes(t, c, "class 0 removed", 3, 2, 3)
	wantRoutes(t, c, "class 0 removed", 2, 0, 1, 2)
	removeClass(t, c, 1)
	wantRoutes(t, c, "class 1 removed", 3)
	wantRoutes(t, c, "class 1 removed", 2, 0, 1, 2)
	mustAudit(t, c, "after the removals")
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("CheckEnforcement: %v", err)
	}
}

// TestCheckRoutesAllocatesNothing: CheckInvariants' route clause reads the
// route names New fixed and the tables' name indexes, so it allocates
// nothing, and it names a route that is missing.
func TestCheckRoutesAllocatesNothing(t *testing.T) {
	c, _, _ := hundredClassFixture(t)
	assignments := c.assign.sorted()
	if n := testing.AllocsPerRun(5, func() {
		for _, a := range assignments {
			if err := c.checkRoutes(a); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("the route clause allocated %.0f objects over %d classes; the gate is 0", n, len(assignments))
	}
	a := assignments[0]
	dst := a.Class.Path[len(a.Class.Path)-1]
	tbl, err := c.switches[a.Class.Path[0]].Pipeline.Table(TableRouting)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Remove(c.switches[dst].route)
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.switches[dst].route) {
		t.Fatalf("CheckInvariants with a route removed = %v, want it named", err)
	}
}

// ringController builds a controller over the ring of n switches
// 0-1-…-(n-1)-0 with APPLE hosts at the given switches.
func ringController(t *testing.T, n int, hosts ...topology.NodeID) *Controller {
	t.Helper()
	g := lineTopo(t, n)
	if err := g.AddLink(topology.NodeID(n-1), 0, 10_000, 1); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7, HostSwitches: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKnownGapRouteIgnoresClassPath pins a known gap (ROADMAP item 28):
// the routing table keys on the destination alone, so a class whose path
// parts from another class's toward the same destination is steered down
// the other's. On the ring 0-1-2-3-0 with hosts at switches 1 and 3, class
// 0 {Firewall} runs 0→1→2 and class 1 {IDS} 0→3→2. Both install, and
// CheckInvariants holds, since every switch of both paths carries
// route-2; but switch 0's route forwards to 1, class 0's next hop, so
// class 1's probes walk 0→1→2 and pass through no instance. The audit
// that asks every route to follow every holder's next hop names the route.
//
// Removing class 0 leaves switch 1 with no class toward switch 2, so its
// route retires, and switch 0's route follows its oldest holder left,
// class 1, to switch 3: class 1 is then enforced. When item 28 lands this test fails: flip it into an assertion
// that the second class is refused, or routed on its own path.
func TestKnownGapRouteIgnoresClassPath(t *testing.T) {
	c := ringController(t, 4, 1, 3)
	prob := &core.Problem{Topo: c.g, Avail: c.Avail(), Classes: []core.Class{
		{ID: 0, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: []topology.NodeID{0, 3, 2}, Chain: policy.Chain{policy.IDS}, RateMbps: 200},
	}}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatalf("InstallPlacement: %v", err)
	}
	mustAudit(t, c, "installed")
	err = c.CheckEnforcement()
	if err == nil {
		t.Fatal("known gap closed? class 1 is enforced beside class 0")
	}
	if want := "class 1 probe 0 visited 0 instances"; !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckEnforcement = %v, want %q", err, want)
	}
	hdr, err := c.FlowHeader(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := c.Forward(hdr, 0); err != nil || !slices.Equal(tr.Switches, []topology.NodeID{0, 1, 2}) {
		t.Fatalf("class 1's walk: %v (err %v), want switches [0 1 2]", tr.Switches, err)
	}
	if err := auditRoutes(c, true); err == nil || !strings.Contains(err.Error(), `switch 0: "route-2" forwards to switch 1, but class 1`) {
		t.Fatalf("the holder audit = %v, want it to name switch 0's route-2", err)
	}

	removeClass(t, c, 0)
	wantRoutes(t, c, "class 0 removed", 2, 0, 2, 3)
	if err := auditRoutes(c, true); err != nil {
		t.Fatalf("after class 0's removal: %v", err)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("after class 0's removal: %v", err)
	}
}

// TestRetireRepointsRoute: the retire fault route's clean run retires
// switch 1's route-2 and re-points switch 0's to switch 3, class 1's next
// hop, and retires switch 1's route-0 with class 3.
func TestRetireRepointsRoute(t *testing.T) {
	fx := newRetireRoute(t)
	wantRoutes(t, fx.c, "before the call", 0, 0, 1)
	if err := fx.run(); err != nil {
		t.Fatal(err)
	}
	wantRoutes(t, fx.c, "classes 0 and 3 removed", 2, 0, 2, 3)
	wantRoutes(t, fx.c, "classes 0 and 3 removed", 0, 0, 3)
	if err := auditRoutes(fx.c, true); err != nil {
		t.Fatalf("after the commit: %v", err)
	}
	hdr, err := fx.c.FlowHeader(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := fx.c.Forward(hdr, 0); err != nil || !tr.Delivered || !slices.Equal(tr.Switches, []topology.NodeID{0, 0, 3, 2}) {
		t.Fatalf("class 1's walk: %+v (err %v), want switches [0 0 3 2]", tr, err)
	}
}

// walkOf returns the switches class id's first packet crosses, each once
// however often the walk re-enters it from a host.
func walkOf(t *testing.T, c *Controller, id core.ClassID) []topology.NodeID {
	t.Helper()
	hdr, err := c.FlowHeader(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.assign.get(id)
	tr, err := c.Forward(hdr, a.Class.Path[0])
	if err != nil || !tr.Delivered {
		t.Fatalf("class %d's walk: %+v (err %v), not delivered", id, tr, err)
	}
	return slices.Compact(slices.Clone(tr.Switches))
}

// TestRetireFollowsOldestHolder: a route follows its oldest holder, so a
// removal re-points every route the leaving class led, not only those
// next to a route it retires. On the ring 0-1-2-3-4-5-0 with a host at
// switch 0, class 1 runs 1→0→5→4→3, and class 0, admitted after it,
// 0→1→2→3: class 0 is the first to hold the route toward switch 3 only at
// switch 2, so it walks 0→5→4→3 on class 1's routes. Removing class 1
// retires the routes at switches 5 and 4 and re-points those at 1 and 0
// to class 0's next hops, after which class 0 walks its own path.
// Re-pointing switch 0's route alone would loop 0→1→0.
func TestRetireFollowsOldestHolder(t *testing.T) {
	c := ringController(t, 6, 0)
	for _, cl := range []core.Class{
		{ID: 1, Path: []topology.NodeID{1, 0, 5, 4, 3}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
		{ID: 0, Path: []topology.NodeID{0, 1, 2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 100},
	} {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	mustAudit(t, c, "installed")
	if got := walkOf(t, c, 0); !slices.Equal(got, []topology.NodeID{0, 5, 4, 3}) {
		t.Fatalf("class 0 walks %v before the removal, want class 1's routes [0 5 4 3]", got)
	}
	removeClass(t, c, 1)
	wantRoutes(t, c, "class 1 removed", 3, 0, 1, 2, 3)
	if err := auditRoutes(c, true); err != nil {
		t.Fatalf("after class 1's removal: %v", err)
	}
	if got := walkOf(t, c, 0); !slices.Equal(got, []topology.NodeID{0, 1, 2, 3}) {
		t.Fatalf("class 0 walks %v after the removal, want its path [0 1 2 3]", got)
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("after class 1's removal: %v", err)
	}
}

// TestRetireRepointsToOldestLeft: when a route's oldest holder leaves, the
// route follows the oldest holder left, not any other. On the ring
// 0-1-2-3-4-5-0 with a host at switch 0, classes 1 (1→0→5→4→3), 0
// (0→1→2→3) and 2 (0→5→4→3) are admitted in that order, so switch 0's
// route toward switch 3 forwards to 5, class 1's next hop. Removing class
// 1 re-points it to 1, the next hop of class 0, older than class 2, whose
// next hop is 5; the routes at switches 5 and 4 stay for class 2, which
// walks class 0's path from switch 0 on (ROADMAP item 28).
func TestRetireRepointsToOldestLeft(t *testing.T) {
	c := ringController(t, 6, 0)
	for _, cl := range []core.Class{
		{ID: 1, Path: []topology.NodeID{1, 0, 5, 4, 3}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
		{ID: 0, Path: []topology.NodeID{0, 1, 2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 100},
		{ID: 2, Path: []topology.NodeID{0, 5, 4, 3}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
	} {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	removeClass(t, c, 1)
	wantRoutes(t, c, "class 1 removed", 3, 0, 1, 2, 3, 4, 5)
	for _, id := range []core.ClassID{0, 2} {
		if got := walkOf(t, c, id); !slices.Equal(got, []topology.NodeID{0, 1, 2, 3}) {
			t.Errorf("class %d walks %v after the removal, want class 0's path [0 1 2 3]", id, got)
		}
	}
}

// TestUpdateOnItsPathKeepsRoutes: an update that keeps a class's path
// keeps its age, so the routes it leads stay on its next hops. On the ring
// 0-1-2-3-4-5-0 with a host at switch 0, class 1 (1→0→5→4→3) leads the
// routes toward switch 3 at switches 1 and 0, ahead of class 0 (0→1→2→3).
// Updated at a new rate on the same path, class 1 still leads them: were
// it as young as a new class, switch 1's route would follow class 0 to
// switch 2, and class 1 would bypass its firewall at switch 0.
func TestUpdateOnItsPathKeepsRoutes(t *testing.T) {
	c := ringController(t, 6, 0)
	cl1 := core.Class{ID: 1, Path: []topology.NodeID{1, 0, 5, 4, 3}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100}
	for _, cl := range []core.Class{
		cl1,
		{ID: 0, Path: []topology.NodeID{0, 1, 2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 100},
	} {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	cl1.RateMbps = 150
	dist := zeroDist(len(cl1.Path), len(cl1.Chain))
	dist[1][0] = 1
	txn := c.Begin()
	txn.StageUpdate(cl1, dist)
	if err := txn.Commit(TxnOptions{Verify: true, Audit: auditWith(c, d)}); err != nil {
		t.Fatalf("update class 1: %v", err)
	}
	for id, want := range map[core.ClassID][]topology.NodeID{1: {1, 0, 5, 4, 3}, 0: {0, 5, 4, 3}} {
		if got := walkOf(t, c, id); !slices.Equal(got, want) {
			t.Errorf("class %d walks %v after the update, want %v", id, got, want)
		}
	}
}

// TestRouteAuditNamesOldestHolder: on the known-gap ring, a route re-pointed
// to a younger holder's next hop still delivers, but the audit names the
// oldest holder it should follow.
func TestRouteAuditNamesOldestHolder(t *testing.T) {
	c := ringController(t, 4, 1, 3)
	for _, cl := range []core.Class{
		{ID: 0, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 200},
		{ID: 1, Path: []topology.NodeID{0, 3, 2}, Chain: policy.Chain{policy.IDS}, RateMbps: 200},
	} {
		if err := c.AddClass(cl); err != nil {
			t.Fatalf("AddClass(%d): %v", cl.ID, err)
		}
	}
	mustAudit(t, c, "installed")
	reinstall(t, routingTable(t, c, 0), "route-2", func(_ int, r *flowtable.Rule) bool {
		r.Actions[0].Port = c.nbrPort[0][3]
		return true
	})
	want := "switch 0: route-2 forwards to switch 3, but its oldest holder, class 0, crosses it toward switch 1"
	if err := auditRoutes(c, false); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit = %v, want %q", err, want)
	}
}
