package controller

// Publication walks: the data plane a packet meets between two table
// publications of a commit, not only before and after it. The controller's
// published hook runs after every table batch a transaction applies or its
// unwind reverts; the tests below walk a class's probes there.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// probeWalk is the outcome of one probe's walk: the switches and
// instances it visited, as printed, how many instances that was, whether
// it was delivered or failed, and where a failed walk stopped: "switch v"
// when switch v's pipeline dropped it, "host v" when the host at switch v
// did not return it (its vSwitch dropped it).
type probeWalk struct {
	switches, instances string
	processed           int
	delivered, failed   bool
	stop                string
}

func (w probeWalk) String() string {
	return fmt.Sprintf("switches %s instances %s delivered %v failed %v stop %q", w.switches, w.instances, w.delivered, w.failed, w.stop)
}

// stopOf names where a walk that ended in err stopped: "" for a walk that
// did not fail, else its last switch, or the host there when the error
// came from the host.
func stopOf(tr Trace, err error) string {
	if err == nil || len(tr.Switches) == 0 {
		return ""
	}
	v := tr.Switches[len(tr.Switches)-1]
	if strings.HasPrefix(err.Error(), "controller: host") {
		return fmt.Sprintf("host %d", v)
	}
	return fmt.Sprintf("switch %d", v)
}

// probeWalks walks the probes of each class — one at the start of each
// eighth of its source space, as CheckClassEnforcement sends them — from
// its ingress, class by class. A class need not be installed.
func probeWalks(t *testing.T, c *Controller, classes []core.Class) []probeWalk {
	t.Helper()
	var out []probeWalk
	for _, cl := range classes {
		prefix, err := ClassPrefix(cl.ID)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := DstAddr(cl.Path[len(cl.Path)-1])
		if err != nil {
			t.Fatal(err)
		}
		slice := uint32(1) << (32 - prefix.Len - 3)
		for p := uint32(0); p < 8; p++ {
			hdr := headerspace.Header{SrcIP: prefix.Addr | p*slice, DstIP: dst, Proto: headerspace.ProtoTCP}
			tr, err := c.Forward(hdr, cl.Path[0])
			out = append(out, probeWalk{
				switches: fmt.Sprint(tr.Switches), instances: fmt.Sprint(tr.Instances),
				processed: len(tr.Instances), delivered: tr.Delivered, failed: err != nil,
				stop: stopOf(tr, err),
			})
		}
	}
	return out
}

// publication is what the probes walked right after one table publication.
type publication struct {
	table tableKey
	walks []probeWalk
}

// recordPublications walks the classes' probes after every table
// publication until the returned stop is called.
func recordPublications(t *testing.T, c *Controller, classes []core.Class) (pubs *[]publication, stop func()) {
	t.Helper()
	pubs = new([]publication)
	c.published = func(k tableKey) {
		*pubs = append(*pubs, publication{table: k, walks: probeWalks(t, c, classes)})
	}
	return pubs, func() { c.published = nil }
}

// publicationRoute is one install entry point: a fresh controller on a
// 4-switch line where every new class's destination route already stands,
// the classes the call installs, and the call.
type publicationRoute struct {
	name string
	new  func(t *testing.T) (c *Controller, classes []core.Class, run func() error)
}

// routedSetup installs a class to switch 3 along the whole line, so the
// route to switch 3 stands on every switch.
func routedSetup(t *testing.T) (*Controller, *core.Problem) {
	t.Helper()
	c, prob, _, _ := setup(t, []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 300},
	})
	return c, prob
}

var publicationRoutes = []publicationRoute{
	{"add", func(t *testing.T) (*Controller, []core.Class, func() error) {
		c, _ := routedSetup(t)
		cl := core.Class{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.IDS, policy.Proxy}, RateMbps: 200}
		return c, []core.Class{cl}, func() error { return c.AddClass(cl) }
	}},
	{"batch", func(t *testing.T) (*Controller, []core.Class, func() error) {
		c, _ := routedSetup(t)
		classes := []core.Class{
			{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.IDS, policy.Proxy}, RateMbps: 200},
			{ID: 2, Path: []topology.NodeID{1, 2, 3}, Chain: policy.Chain{policy.NAT}, RateMbps: 150},
			{ID: 3, Path: []topology.NodeID{2, 3}, Chain: policy.Chain{policy.Firewall}, RateMbps: 100},
		}
		return c, classes, func() error { return c.AddClassBatch(classes, BatchOptions{Verify: true}) }
	}},
	{"placement", func(t *testing.T) (*Controller, []core.Class, func() error) {
		c, prob := routedSetup(t)
		classes := []core.Class{
			{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 400},
			{ID: 2, Path: []topology.NodeID{1, 2, 3}, Chain: policy.Chain{policy.Proxy}, RateMbps: 250},
			{ID: 3, Path: []topology.NodeID{2, 3}, Chain: policy.Chain{policy.IDS}, RateMbps: 150},
		}
		next := &core.Problem{Topo: prob.Topo, Classes: classes, Avail: c.Avail()}
		pl, err := core.NewEngine(core.EngineOptions{}).Solve(next)
		if err != nil {
			t.Fatal(err)
		}
		return c, classes, func() error { return c.InstallPlacement(next, pl) }
	}},
	{"reoptimize", func(t *testing.T) (*Controller, []core.Class, func() error) {
		c, prob := routedSetup(t)
		added := []core.Class{
			{ID: 1, Path: []topology.NodeID{1, 2, 3}, Chain: policy.Chain{policy.Proxy, policy.IDS}, RateMbps: 250},
		}
		next := &core.Problem{Topo: prob.Topo, Classes: append(prob.Classes[:1:1], added...), Avail: prob.Avail}
		pl, err := core.NewEngine(core.EngineOptions{}).Solve(next)
		if err != nil {
			t.Fatal(err)
		}
		return c, added, func() error {
			rep, err := c.ReOptimize(next, pl, ReoptOptions{Verify: true})
			if err == nil && rep.Added != len(added) {
				err = fmt.Errorf("ReOptimize added %d classes, want %d", rep.Added, len(added))
			}
			return err
		}
	}},
}

// checkPublications fails the test for every probe walk that equals
// neither its walk before the call nor its walk after a clean one. A probe
// of a class the call removes (removed[p] names its ingress switch, as
// "switch v"; "" for a class the call keeps, and removed may be nil) walks
// as before the call or through no instance at all, delivered or dropped
// at its ingress: from its classification's removal on it is routed as an
// unclassified packet, and its routes retire in path order, ingress first.
// It never meets part of its chain, and no vSwitch drops it: its steering
// goes only once its classification has.
func checkPublications(t *testing.T, pubs []publication, before, after []probeWalk, removed []string) {
	t.Helper()
	for i, pub := range pubs {
		for p, got := range pub.walks {
			switch {
			case got == before[p]:
			case removed != nil && removed[p] != "":
				if got.processed != 0 || !got.delivered && got.stop != removed[p] {
					t.Errorf("publication %d (%+v), probe %d of a removed class walked outside the removal window (delivered or dropped at %s, through no instance):\n  walked  %v\n  before  %v",
						i+1, pub.table, p, removed[p], got, before[p])
				}
			case got != after[p]:
				t.Errorf("publication %d (%+v), probe %d:\n  walked  %v\n  before  %v\n  after   %v",
					i+1, pub.table, p, got, before[p], after[p])
			}
		}
	}
}

// TestInstallPublicationsConsistent: per-packet consistency of a class
// install, walked at every publication. On each install route — AddClass,
// AddClassBatch, InstallPlacement and a ReOptimize add — a new class whose
// destination route already stands is delivered unprocessed before the
// call and through its chain after it; after every table publication in
// between, each of its probes must walk one of those two ways. Each route
// runs clean, then once more per failpoint it fires with a fault injected
// there, walking the unwind's reverts and what the call leaves too. An
// install that publishes a class's classification before its steering
// fails this on every route: a probe classified into a host whose steering
// is not there yet is dropped by its vSwitch.
func TestInstallPublicationsConsistent(t *testing.T) {
	for _, rt := range publicationRoutes {
		t.Run(rt.name, func(t *testing.T) {
			c, classes, run := rt.new(t)
			before := probeWalks(t, c, classes)
			for p, w := range before {
				if !w.delivered || w.processed != 0 {
					t.Fatalf("probe %d walked %v before the call; want it delivered unprocessed", p, w)
				}
			}
			var points []string
			c.failpoint = func(p string) error {
				points = append(points, p)
				return nil
			}
			pubs, stop := recordPublications(t, c, classes)
			if err := run(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			stop()
			for _, cl := range classes {
				if err := c.CheckClassEnforcement(cl.ID); err != nil {
					t.Fatalf("after the clean run: %v", err)
				}
			}
			after := probeWalks(t, c, classes)
			for p := range after {
				if after[p] == before[p] {
					t.Fatalf("the install left %s as it was", after[p])
				}
			}
			if len(*pubs) == 0 {
				t.Fatal("no publication walked")
			}
			checkPublications(t, *pubs, before, after, nil)

			for _, pt := range points {
				c, classes, run := rt.new(t)
				c.failpoint = func(p string) error {
					if p == pt {
						return errInjected
					}
					return nil
				}
				pubs, stop := recordPublications(t, c, classes)
				if err := run(); err == nil {
					t.Fatalf("fault at %s: the call succeeded", pt)
				}
				stop()
				// AddClassBatch keeps the classes admitted before an
				// admission failure, so what stands is checked as one more
				// publication.
				checkPublications(t, append(*pubs, publication{walks: probeWalks(t, c, classes)}), before, after, nil)
			}
		})
	}
}

// TestReshapePublicationsConsistent: per-packet consistency of every
// cutover, walked at every publication. On the faultRoutes that cut
// installed classes over — the Dynamic Handler's overload, rollback,
// spawn-activation and NAT-overload reshapes, and the commit, reshaped and
// retire transactions, whose updates and removals are cutovers too — each
// probe of every class installed before the call must walk, after every
// table publication of the call, as it did before the call or as it does
// after a clean one; a probe of a class the call removes, as before the
// call or through no instance (checkPublications). Each route runs clean,
// then once more per failpoint it fires with a fault injected there,
// walking the unwind's reverts and what the call leaves: the state before
// the call, for every one of these routes. Retiring steering before the
// classification flip, or before the make step, fails the commit and
// reshaped routes: an updated class's probes are dropped by a vSwitch.
func TestReshapePublicationsConsistent(t *testing.T) {
	for _, route := range faultRoutes {
		if route.name == "batch" || route.name == "placement" {
			continue // install routes, walked by TestInstallPublicationsConsistent
		}
		t.Run(route.name, func(t *testing.T) {
			fx := route.new(t)
			var classes []core.Class
			for _, id := range fx.c.Classes() {
				a, _ := fx.c.assign.get(id)
				classes = append(classes, a.Class)
			}
			before := probeWalks(t, fx.c, classes)
			var points []string
			fx.c.failpoint = func(p string) error {
				points = append(points, p)
				return nil
			}
			pubs, stop := recordPublications(t, fx.c, classes)
			if err := fx.run(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			stop()
			after := probeWalks(t, fx.c, classes)
			if slices.Equal(after, before) {
				t.Fatal("the call moved no probe")
			}
			if len(*pubs) == 0 {
				t.Fatal("no publication walked")
			}
			removed := make([]string, len(before))
			for p := range removed {
				if cl := classes[p/8]; !fx.c.assign.has(cl.ID) {
					removed[p] = fmt.Sprintf("switch %d", cl.Path[0])
				}
			}
			checkPublications(t, *pubs, before, after, removed)

			for _, pt := range points {
				fx := route.new(t)
				fx.c.failpoint = failAt(pt)
				pubs, stop := recordPublications(t, fx.c, classes)
				if err := fx.run(); !errors.Is(err, errInjected) {
					t.Fatalf("fault at %s: run = %v, want the injected fault", pt, err)
				}
				stop()
				left := probeWalks(t, fx.c, classes)
				if !slices.Equal(left, before) {
					t.Errorf("fault at %s left the probes walking otherwise than before the call", pt)
				}
				checkPublications(t, *pubs, before, after, removed)
			}
		})
	}
}

// TestFirstRouteWindow: a class to a destination no route reaches yet has
// no forwarding before its commit to keep — its probes are dropped at the
// ingress — and make-before-break does not promise one. Its install's make
// step publishes the new route switch by switch along the path, so between
// the first routing publication and the classification flip its probes go
// through none of its chain: dropped further along the path, then
// delivered unprocessed. The window shows on the AddClass of the first
// class to switch 3 on a 4-switch line: every publication walks each probe
// as before the call, as after it or unprocessed, and at least one
// delivers it unprocessed.
func TestFirstRouteWindow(t *testing.T) {
	c, _, _, _ := setup(t, []core.Class{
		{ID: 0, Path: []topology.NodeID{0, 1, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 300},
	})
	cl := core.Class{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.IDS, policy.Proxy}, RateMbps: 200}
	classes := []core.Class{cl}
	before := probeWalks(t, c, classes)
	for p, w := range before {
		if !w.failed || w.switches != "[0]" {
			t.Fatalf("probe %d walked %v before the call; want a drop at the ingress", p, w)
		}
	}
	pubs, stop := recordPublications(t, c, classes)
	if err := c.AddClass(cl); err != nil {
		t.Fatal(err)
	}
	stop()
	after := probeWalks(t, c, classes)
	window := make([]bool, len(before))
	for i, pub := range *pubs {
		for p, got := range pub.walks {
			switch {
			case got == before[p] || got == after[p]:
			case got.processed == 0:
				window[p] = window[p] || got.delivered
			default:
				t.Errorf("publication %d (%+v), probe %d: walked %v, partly processed", i+1, pub.table, p, got)
			}
		}
	}
	for p, seen := range window {
		if !seen {
			t.Errorf("probe %d was never delivered unprocessed: the first-route window closed", p)
		}
	}
}

// TestPublishedHookAllocs: the publication hook costs no allocation. An
// install and removal of one class — four table publications, the
// ingress APPLE table and the host's steering table each way; class 0
// holds every route the class needs, so no routing table changes —
// allocates as many objects with the hook nil, the default, as with a hook
// that does nothing.
func TestPublishedHookAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the cycle")
	}
	c, _ := routedSetup(t)
	cl := core.Class{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.IDS, policy.Proxy}, RateMbps: 200}
	publications := 0
	cycle := func() {
		if err := c.AddClass(cl); err != nil {
			t.Fatal(err)
		}
		txn := c.Begin()
		txn.StageRemove(cl.ID)
		if err := txn.Commit(TxnOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.published = func(tableKey) { publications++ }
	cycle()
	c.published = nil
	if publications < 4 {
		t.Fatalf("an install and removal published %d tables", publications)
	}
	unhooked := testing.AllocsPerRun(20, cycle)
	c.published = func(tableKey) {}
	hooked := testing.AllocsPerRun(20, cycle)
	t.Logf("%d publications: %.0f allocations without the hook, %.0f with a no-op hook", publications, unhooked, hooked)
	if unhooked != hooked {
		t.Errorf("a nil hook's cycle allocated %.0f objects, a no-op hook's %.0f", unhooked, hooked)
	}
}

// publicationSum hashes every table publication of a call until the
// returned stop is called: after each, the table's key and its rules in
// match order, as fmtRule prints them. stop returns how many publications
// there were and the hash.
func publicationSum(t *testing.T, c *Controller) (stop func() (int, string)) {
	t.Helper()
	h, n := sha256.New(), 0
	c.published = func(k tableKey) {
		n++
		tbl, err := c.deviceTable(k.dev, k.table)
		if err != nil {
			t.Fatalf("publication of %+v: %v", k, err)
		}
		fmt.Fprintf(h, "%+v\n", k)
		for _, r := range tbl.Rules() {
			fmt.Fprintln(h, fmtRule(r))
		}
	}
	return func() (int, string) {
		c.published = nil
		return n, fmt.Sprintf("%x", h.Sum(nil))
	}
}

// publicationLine formats one golden line: the route, the failpoint ("-"
// for a clean run), the publication count and their hash.
func publicationLine(route, pt string, n int, sum string) string {
	return fmt.Sprintf("%s %s %d %s", route, pt, n, sum)
}

// TestPublicationOrderGolden pins what every rule-mutating entry point
// publishes, table by table and in order: each route of faultRoutes and
// of publicationRoutes, run clean and once more per failpoint it fires
// with a fault injected there, unwind reverts included. Every line of
// testdata/publications.txt holds a route, a failpoint, the number of
// publications and the sha256 of the sequence of published tables, each
// followed by its rules right after it was published. Any reordering of a
// commit's batches, or of the operations within one, shows here.
func TestPublicationOrderGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/publications.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, route := range faultRoutes {
		name := "fault/" + route.name
		for _, pt := range append([]string{"-"}, probeFailpoints(t, route.new)...) {
			fx := route.new(t)
			if pt != "-" {
				fx.c.failpoint = failAt(pt)
			}
			stop := publicationSum(t, fx.c)
			err := fx.run()
			n, sum := stop()
			if (err != nil) != (pt != "-") {
				t.Fatalf("%s at %s: run = %v", name, pt, err)
			}
			got = append(got, publicationLine(name, pt, n, sum))
		}
	}
	for _, rt := range publicationRoutes {
		name := "install/" + rt.name
		c, _, run := rt.new(t)
		points := []string{"-"}
		c.failpoint = func(p string) error {
			points = append(points, p)
			return nil
		}
		stop := publicationSum(t, c)
		if err := run(); err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		n, sum := stop()
		got = append(got, publicationLine(name, "-", n, sum))
		for _, pt := range points[1:] {
			c, _, run := rt.new(t)
			c.failpoint = failAt(pt)
			stop := publicationSum(t, c)
			if err := run(); err == nil {
				t.Fatalf("%s: fault at %s: the call succeeded", name, pt)
			}
			n, sum := stop()
			got = append(got, publicationLine(name, pt, n, sum))
		}
	}
	if slices.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("run %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	t.Fatalf("%d runs, publications.txt has %d lines; this tree gives:\n%s",
		len(got), len(want), strings.Join(got, "\n"))
}
