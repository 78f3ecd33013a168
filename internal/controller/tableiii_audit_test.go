package controller

// A rule-level audit of the data plane: what every physical switch's APPLE
// table and every vSwitch steering table would execute, checked against
// the layout Table III and §V-B prescribe. CheckInvariants audits the
// controller's bookkeeping (arrays, ledgers, rule presence by name); this
// reads the rules themselves, so a rule with the right name and the wrong
// match or action is caught here.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// auditTableIII returns the first violation of these rules, or nil:
//
//   - each switch carries at most one pass-by row, and exactly one once a
//     class is installed: lowest priority, match-all, goto routing;
//   - host-match rows sit only on switches with an APPLE host, one per
//     switch, forward to the host port, and no two switches answer to the
//     same host tag;
//   - cls-N rows sit only at installed class N's ingress, match untagged
//     packets inside N's prefix, are pairwise disjoint and together cover
//     the prefix; each sets a sub-class tag of N and then either hands the
//     packet to the ingress host (the sub-class is processed there first)
//     or writes the host tag of the switch that processes it first;
//   - the APPLE table holds no other rule;
//   - every vsw-N-s steering rule names a live sub-class, matches its tag,
//     and matches N's prefix exactly when N's chain keeps headers intact;
//     every host tag it writes is Fin or answered by a switch on N's path.
func auditTableIII(c *Controller) error {
	tagOwner := make(map[uint16]topology.NodeID)
	for _, v := range c.Switches() {
		rules, err := appleRules(c, v)
		if err != nil {
			return err
		}
		rows := 0
		for _, r := range rules {
			if r.Name != "host-match" {
				continue
			}
			if rows++; rows > 1 {
				return fmt.Errorf("switch %d carries %d host-match rows, want at most 1", v, rows)
			}
			if r.Match.HostTag == nil {
				return fmt.Errorf("switch %d: host-match row %s matches no host tag", v, fmtRule(r))
			}
			tag := *r.Match.HostTag
			if tag == flowtable.HostTagEmpty || tag == flowtable.HostTagFin {
				return fmt.Errorf("switch %d: host-match row answers to sentinel tag %d", v, tag)
			}
			if prev, ok := tagOwner[tag]; ok {
				return fmt.Errorf("host tag %d answered by switches %d and %d", tag, prev, v)
			}
			tagOwner[tag] = v
		}
	}

	installed := len(c.Classes()) > 0
	cls := make(map[core.ClassID][]flowtable.Prefix)
	for _, v := range c.Switches() {
		rules, err := appleRules(c, v)
		if err != nil {
			return err
		}
		passBy := 0
		for _, r := range rules {
			switch {
			case r.Name == "pass-by":
				passBy++
				if r.Priority != prioPassBy || !r.Match.Equal(flowtable.Match{}) || len(r.Actions) != 1 ||
					r.Actions[0] != (flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting}) {
					return fmt.Errorf("switch %d: pass-by row %s is not Table III's match-all goto-routing row", v, fmtRule(r))
				}
			case r.Name == "host-match":
				if _, ok := c.hosts[v]; !ok {
					return fmt.Errorf("switch %d has no APPLE host but carries a host-match row", v)
				}
				if r.Priority != prioHostMatch || len(r.Actions) != 1 ||
					r.Actions[0] != (flowtable.Action{Type: flowtable.ActForward, Port: PortHost}) {
					return fmt.Errorf("switch %d: host-match row %s does not forward to the host port", v, fmtRule(r))
				}
			case strings.HasPrefix(r.Name, "cls-"):
				id, err := strconv.Atoi(strings.TrimPrefix(r.Name, "cls-"))
				a, ok := c.assign.get(core.ClassID(id))
				if err != nil || !ok {
					return fmt.Errorf("switch %d: classification row %q names no installed class", v, r.Name)
				}
				if err := auditClassification(v, a, r, tagOwner); err != nil {
					return err
				}
				cls[a.Class.ID] = append(cls[a.Class.ID], *r.Match.Src)
			default:
				return fmt.Errorf("switch %d: rule %q has no place in the APPLE table", v, r.Name)
			}
		}
		if passBy > 1 || (passBy == 0 && installed) {
			return fmt.Errorf("switch %d carries %d pass-by rows, want 1", v, passBy)
		}
	}
	for _, id := range c.Classes() {
		a, _ := c.assign.get(id)
		if err := auditCoverage(a, cls[id]); err != nil {
			return err
		}
	}

	for _, v := range c.Hosts() {
		steer, err := c.hosts[v].VSwitch().Table(host.TableSteering)
		if err != nil {
			return err
		}
		for _, r := range steer.Rules() {
			var id, s int
			if k, _ := fmt.Sscanf(r.Name, "vsw-%d-%d", &id, &s); k != 2 {
				continue
			}
			a, ok := c.assign.get(core.ClassID(id))
			if !ok || s >= len(a.Subclasses) {
				return fmt.Errorf("host %d: steering rule %q names no live sub-class", v, r.Name)
			}
			if r.Match.SubTag == nil || *r.Match.SubTag != a.SubTags[s] {
				return fmt.Errorf("host %d: steering rule %s does not match sub-class tag %d", v, fmtRule(r), a.SubTags[s])
			}
			if a.Global != (r.Match.Src == nil) || (r.Match.Src != nil && *r.Match.Src != a.Prefix) {
				return fmt.Errorf("host %d: steering rule %s source match wrong for class %d (prefix %v, rewrites headers %v)",
					v, fmtRule(r), id, a.Prefix, a.Global)
			}
			for _, act := range r.Actions {
				if act.Type != flowtable.ActSetHostTag || act.Tag == flowtable.HostTagFin {
					continue
				}
				if owner, ok := tagOwner[act.Tag]; !ok || !slices.Contains(a.Class.Path, owner) {
					return fmt.Errorf("host %d: steering rule %q writes host tag %d, answered by no switch on class %d's path",
						v, r.Name, act.Tag, id)
				}
			}
		}
	}
	return nil
}

// appleRules returns switch v's APPLE-table rules in match order.
func appleRules(c *Controller, v topology.NodeID) ([]flowtable.Rule, error) {
	tbl, err := c.switches[v].Pipeline.Table(TableAPPLE)
	if err != nil {
		return nil, err
	}
	return tbl.Rules(), nil
}

// auditClassification checks one cls-N row at switch v against class a.
func auditClassification(v topology.NodeID, a *Assignment, r flowtable.Rule, tagOwner map[uint16]topology.NodeID) error {
	cl := a.Class
	ingress := cl.Path[0]
	if v != ingress {
		return fmt.Errorf("switch %d: classification row of class %d away from its ingress %d", v, cl.ID, ingress)
	}
	if r.Priority != prioClassify || r.Match.HostTag == nil || *r.Match.HostTag != flowtable.HostTagEmpty {
		return fmt.Errorf("switch %d: classification row %s does not match untagged packets at priority %d", v, fmtRule(r), prioClassify)
	}
	if src := r.Match.Src; src == nil || src.Len < a.Prefix.Len || !a.Prefix.Contains(src.Addr) {
		return fmt.Errorf("switch %d: classification row %s lies outside class %d's prefix %v", v, fmtRule(r), cl.ID, a.Prefix)
	}
	acts := r.Actions
	s := -1
	if len(acts) > 0 && acts[0].Type == flowtable.ActSetSubTag {
		s = slices.Index(a.SubTags, uint8(acts[0].Tag))
	}
	if s < 0 {
		return fmt.Errorf("switch %d: classification row %s sets no sub-class tag of class %d %v", v, fmtRule(r), cl.ID, a.SubTags)
	}
	first := cl.Path[a.Subclasses[s].Hops[0]]
	if first == ingress {
		if len(acts) != 2 || acts[1] != (flowtable.Action{Type: flowtable.ActForward, Port: PortHost}) {
			return fmt.Errorf("switch %d: classification row %s should hand sub-class %d to the ingress host", v, fmtRule(r), s)
		}
		return nil
	}
	if len(acts) != 3 || acts[1].Type != flowtable.ActSetHostTag ||
		acts[2] != (flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting}) {
		return fmt.Errorf("switch %d: classification row %s should tag sub-class %d for switch %d and go to routing", v, fmtRule(r), s, first)
	}
	if owner, ok := tagOwner[acts[1].Tag]; !ok || owner != first {
		return fmt.Errorf("switch %d: classification row %q writes host tag %d, but sub-class %d is first processed at switch %d",
			v, r.Name, acts[1].Tag, s, first)
	}
	return nil
}

// auditCoverage checks that class a's classification prefixes are pairwise
// disjoint and cover its prefix: every flow of the class is classified,
// exactly once.
func auditCoverage(a *Assignment, pfx []flowtable.Prefix) error {
	pfx = slices.Clone(pfx)
	slices.SortFunc(pfx, func(x, y flowtable.Prefix) int { return int(int64(x.Addr) - int64(y.Addr)) })
	size := func(p flowtable.Prefix) uint64 { return 1 << (32 - p.Len) }
	var total uint64
	for i, p := range pfx {
		if i > 0 && uint64(pfx[i-1].Addr)+size(pfx[i-1]) > uint64(p.Addr) {
			return fmt.Errorf("class %d: classification prefixes %v and %v overlap", a.Class.ID, pfx[i-1], p)
		}
		total += size(p)
	}
	if want := size(a.Prefix); total != want {
		return fmt.Errorf("class %d: classification covers %d of its prefix's %d addresses", a.Class.ID, total, want)
	}
	return nil
}

// auditFixture installs three classes on a 4-switch line whose last switch
// has no APPLE host: a firewall→IDS chain and a header-rewriting NAT chain
// entering at switch 0, and a proxy class entering at switch 1.
func auditFixture(t *testing.T) *Controller {
	t.Helper()
	g := lineTopo(t, 4)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7, HostSwitches: []topology.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	prob := &core.Problem{Topo: g, Avail: c.Avail(), Classes: []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 500},
		{ID: 1, Path: linePath(4), Chain: policy.Chain{policy.NAT, policy.Firewall}, RateMbps: 400},
		{ID: 2, Path: []topology.NodeID{1, 2, 3}, Chain: policy.Chain{policy.Proxy}, RateMbps: 300},
	}}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatal(err)
	}
	if err := auditTableIII(c); err != nil {
		t.Fatalf("the clean fixture fails the audit: %v", err)
	}
	return c
}

// appleTable returns switch v's APPLE table.
func appleTable(t *testing.T, c *Controller, v topology.NodeID) *flowtable.Table {
	t.Helper()
	tbl, err := c.switches[v].Pipeline.Table(TableAPPLE)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// steerTable returns the steering table of the host carrying class id's
// first sub-class at its first hop.
func steerTable(t *testing.T, c *Controller, id core.ClassID) *flowtable.Table {
	t.Helper()
	a, ok := c.assign.get(id)
	if !ok {
		t.Fatalf("class %d not installed", id)
	}
	tbl, err := c.hosts[a.Class.Path[a.Subclasses[0].Hops[0]]].VSwitch().Table(host.TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// namedRules returns tbl's rules called name, in match order.
func namedRules(tbl *flowtable.Table, name string) []flowtable.Rule {
	var out []flowtable.Rule
	for _, r := range tbl.Rules() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// reinstall replaces tbl's rules called name with what edit makes of them;
// edit drops a rule by returning false.
func reinstall(t *testing.T, tbl *flowtable.Table, name string, edit func(i int, r *flowtable.Rule) bool) {
	t.Helper()
	rules := namedRules(tbl, name)
	if len(rules) == 0 {
		t.Fatalf("no rule %q to edit", name)
	}
	tbl.Remove(name)
	for i, r := range rules {
		r.Actions = slices.Clone(r.Actions)
		if !edit(i, &r) {
			continue
		}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
}

// hostMatchRule is a host-match row answering to tag.
func hostMatchRule(tag uint16) flowtable.Rule {
	return flowtable.Rule{
		Name: "host-match", Priority: prioHostMatch,
		Match:   flowtable.Match{HostTag: flowtable.U16(tag)},
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: PortHost}},
	}
}

// hostMatchSwitch returns the first switch carrying a host-match row, and
// the tag it answers to.
func hostMatchSwitch(t *testing.T, c *Controller) (topology.NodeID, uint16) {
	t.Helper()
	for _, v := range c.Switches() {
		if rows := namedRules(appleTable(t, c, v), "host-match"); len(rows) > 0 {
			return v, *rows[0].Match.HostTag
		}
	}
	t.Fatal("no switch carries a host-match row")
	return 0, 0
}

// TestTableIIIAuditCatches corrupts the audited fixture in one place per
// case, the way a broken rule generator would, and checks that the audit
// names the violation. An audit that passed everything would pass the
// topology suites too; these cases are what make those passes mean
// something.
func TestTableIIIAuditCatches(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, c *Controller)
		want    string
	}{
		{"second pass-by row", func(t *testing.T, c *Controller) {
			if err := appleTable(t, c, 2).Install(namedRules(appleTable(t, c, 2), "pass-by")[0]); err != nil {
				t.Fatal(err)
			}
		}, "pass-by rows"},
		{"pass-by row that drops", func(t *testing.T, c *Controller) {
			reinstall(t, appleTable(t, c, 1), "pass-by", func(_ int, r *flowtable.Rule) bool {
				r.Actions = []flowtable.Action{{Type: flowtable.ActDrop}}
				return true
			})
		}, "not Table III's match-all"},
		{"host-match row without a host", func(t *testing.T, c *Controller) {
			if err := appleTable(t, c, 3).Install(hostMatchRule(4000)); err != nil {
				t.Fatal(err)
			}
		}, "no APPLE host"},
		{"host tag answered twice", func(t *testing.T, c *Controller) {
			v, tag := hostMatchSwitch(t, c)
			other := topology.NodeID(0)
			if v == 0 {
				other = 1
			}
			tbl := appleTable(t, c, other)
			tbl.Remove("host-match")
			if err := tbl.Install(hostMatchRule(tag)); err != nil {
				t.Fatal(err)
			}
		}, "answered by switches"},
		{"host-match row that drops", func(t *testing.T, c *Controller) {
			v, _ := hostMatchSwitch(t, c)
			reinstall(t, appleTable(t, c, v), "host-match", func(_ int, r *flowtable.Rule) bool {
				r.Actions = []flowtable.Action{{Type: flowtable.ActDrop}}
				return true
			})
		}, "does not forward to the host port"},
		{"steering toward an unanswered host tag", func(t *testing.T, c *Controller) {
			reinstall(t, steerTable(t, c, 2), "vsw-2-0", func(_ int, r *flowtable.Rule) bool {
				for k := range r.Actions {
					if r.Actions[k].Type == flowtable.ActSetHostTag {
						r.Actions[k].Tag = 4000
					}
				}
				return true
			})
		}, "answered by no switch on class 2's path"},
		{"classification away from the ingress", func(t *testing.T, c *Controller) {
			if err := appleTable(t, c, 0).Install(namedRules(appleTable(t, c, 1), "cls-2")[0]); err != nil {
				t.Fatal(err)
			}
		}, "away from its ingress"},
		{"classification outside the class prefix", func(t *testing.T, c *Controller) {
			foreign, err := ClassPrefix(2)
			if err != nil {
				t.Fatal(err)
			}
			r := namedRules(appleTable(t, c, 0), "cls-0")[0]
			r.Match.Src = flowtable.PrefixPtr(foreign)
			if err := appleTable(t, c, 0).Install(r); err != nil {
				t.Fatal(err)
			}
		}, "outside class 0's prefix"},
		{"classification of tagged packets", func(t *testing.T, c *Controller) {
			reinstall(t, appleTable(t, c, 0), "cls-0", func(_ int, r *flowtable.Rule) bool {
				r.Match.HostTag = nil
				return true
			})
		}, "does not match untagged packets"},
		{"overlapping classification", func(t *testing.T, c *Controller) {
			if err := appleTable(t, c, 0).Install(namedRules(appleTable(t, c, 0), "cls-1")[0]); err != nil {
				t.Fatal(err)
			}
		}, "overlap"},
		{"unclassified flows", func(t *testing.T, c *Controller) {
			reinstall(t, appleTable(t, c, 0), "cls-0", func(i int, _ *flowtable.Rule) bool { return i > 0 })
		}, "classification covers"},
		{"classification with a foreign sub-class tag", func(t *testing.T, c *Controller) {
			reinstall(t, appleTable(t, c, 1), "cls-2", func(_ int, r *flowtable.Rule) bool {
				r.Actions[0].Tag = uint16(flowtable.MaxSubTag)
				return true
			})
		}, "sets no sub-class tag"},
		{"steering on the wrong sub-class tag", func(t *testing.T, c *Controller) {
			a, _ := c.assign.get(0)
			reinstall(t, steerTable(t, c, 0), "vsw-0-0", func(_ int, r *flowtable.Rule) bool {
				r.Match.SubTag = flowtable.U8(a.SubTags[0] + 1)
				return true
			})
		}, "does not match sub-class tag"},
		{"steering a rewriting class by source", func(t *testing.T, c *Controller) {
			a, _ := c.assign.get(1)
			reinstall(t, steerTable(t, c, 1), "vsw-1-0", func(_ int, r *flowtable.Rule) bool {
				r.Match.Src = flowtable.PrefixPtr(a.Prefix)
				return true
			})
		}, "source match wrong for class 1"},
		{"stale steering rule", func(t *testing.T, c *Controller) {
			r := namedRules(steerTable(t, c, 0), "vsw-0-0")[0]
			r.Name = "vsw-9-0"
			if err := steerTable(t, c, 0).Install(r); err != nil {
				t.Fatal(err)
			}
		}, "names no live sub-class"},
		{"foreign rule in the APPLE table", func(t *testing.T, c *Controller) {
			if err := appleTable(t, c, 2).Install(flowtable.Rule{
				Name: "te-reroute", Priority: 50,
				Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: firstNeighborPort}},
			}); err != nil {
				t.Fatal(err)
			}
		}, "no place in the APPLE table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := auditFixture(t)
			tc.corrupt(t, c)
			err := auditTableIII(c)
			if err == nil {
				t.Fatal("the audit passed a corrupted data plane")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q, want one naming %q", err, tc.want)
			}
		})
	}
}
