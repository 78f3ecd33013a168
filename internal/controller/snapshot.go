package controller

import (
	"fmt"
	"slices"
	"strings"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Snapshot is a copy of a controller's installed state: what every class
// holds, the ledgers the Rule Generator keeps, the hardware in use and
// every rule of every table. Every slice and map in it is its own, so a
// reader may keep or edit it while the controller commits on. String
// renders it as the digest the install and unwind differentials compare.
type Snapshot struct {
	// Classes holds each installed class's record, by ascending class ID.
	Classes []ClassSnapshot
	// Portions is the instance-portion ledger: the planned load the base
	// sub-classes charge to each instance, summed from the class records
	// in class order, which are the one record of it.
	Portions map[vnf.ID]float64
	// GlobalTags lists, per hosting switch, the global sub-class tags in
	// use by header-rewriting classes steered through it, ascending: read
	// off the class records, which are the one record of them.
	GlobalTags map[topology.NodeID][]uint8
	// Pools lists each (switch, NF) pool's instances in pool order.
	Pools map[topology.NodeID]map[policy.NF][]vnf.ID
	// Instances is the orchestrator's inventory, sorted.
	Instances []vnf.ID
	// HostUsed is each APPLE host's reserved hardware.
	HostUsed map[topology.NodeID]policy.Resources
	// Tables holds every table's rules in match order: each switch's
	// tables, then each host's vSwitch tables, in ascending node order.
	Tables []TableSnapshot
}

// ClassSnapshot is one installed class's record, sub-class by sub-class.
type ClassSnapshot struct {
	Class  core.Class
	Prefix flowtable.Prefix
	// Subclasses, Weights, Tags and Instances have one entry per
	// sub-class, Dynamic Handler additions included; Instances[s] lists
	// sub-class s's instances in chain order.
	Subclasses []core.Subclass
	Weights    []float64
	Tags       []uint8
	Instances  [][]vnf.ID
	// Base holds the planned portions of the base sub-classes: the
	// weights a rollback restores.
	Base   []float64
	Global bool
}

// TableSnapshot is one flow table's rules, labelled by device and table.
type TableSnapshot struct {
	Node    topology.NodeID
	VSwitch bool
	Table   int
	Rules   []flowtable.Rule
}

// Snapshot copies the controller's installed state. Callers must be
// quiesced with respect to commits (the same contract as Avail).
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		Portions:   make(map[vnf.ID]float64),
		GlobalTags: make(map[topology.NodeID][]uint8),
		Pools:      make(map[topology.NodeID]map[policy.NF][]vnf.ID, len(c.instPool)),
		Instances:  c.orch.Instances(),
		HostUsed:   make(map[topology.NodeID]policy.Resources, len(c.hosts)),
	}
	gtags := make(map[topology.NodeID]uint64)
	for _, a := range c.assign.sorted() {
		s.Classes = append(s.Classes, a.snapshot())
		a.charge(s.Portions, 1)
		if !a.Global {
			continue
		}
		for _, r := range a.subs {
			for _, v := range subclassHosts(a.Class, r.hops) {
				gtags[v] |= 1 << r.tag
			}
		}
	}
	for v, set := range gtags {
		for tag := uint8(0); set != 0; tag, set = tag+1, set>>1 {
			if set&1 != 0 {
				s.GlobalTags[v] = append(s.GlobalTags[v], tag)
			}
		}
	}
	for v, byNF := range c.instPool {
		pools := make(map[policy.NF][]vnf.ID, len(byNF))
		for nf, insts := range byNF {
			ids := make([]vnf.ID, len(insts))
			for i, inst := range insts {
				ids[i] = inst.ID()
			}
			pools[nf] = ids
		}
		s.Pools[v] = pools
	}
	for v, h := range c.hosts {
		s.HostUsed[v] = h.Used()
	}
	// The callback never fails, and eachTable's own lookups cannot for an
	// index below NumTables, so there is no error to report.
	_ = c.eachTable(func(k tableKey, t *flowtable.Table) error {
		s.Tables = append(s.Tables, TableSnapshot{Node: k.dev.node, VSwitch: k.dev.vswitch, Table: k.table, Rules: t.Rules()})
		return nil
	})
	return s
}

// snapshot copies a's record. Hop vectors and instance rows are copied
// too: the assignment's own are shared with its clones.
func (a *Assignment) snapshot() ClassSnapshot {
	cl := a.Class
	cl.Path = slices.Clone(cl.Path)
	cl.Chain = slices.Clone(cl.Chain)
	cl.AltChains = slices.Clone(cl.AltChains)
	for i, alt := range cl.AltChains {
		cl.AltChains[i] = slices.Clone(alt)
	}
	n, k := len(a.subs), len(a.Class.Chain)
	out := ClassSnapshot{
		Class:      cl,
		Prefix:     a.Prefix(),
		Subclasses: make([]core.Subclass, n),
		Weights:    make([]float64, n),
		Tags:       make([]uint8, n),
		Instances:  make([][]vnf.ID, n),
		Base:       make([]float64, a.nBase),
		Global:     a.Global,
	}
	insts := slices.Clone(a.insts)
	for s, r := range a.subs {
		out.Subclasses[s] = core.Subclass{Portion: r.portion, Hops: slices.Clone(r.hops)}
		out.Weights[s] = r.weight
		out.Tags[s] = r.tag
		out.Instances[s] = insts[s*k : (s+1)*k : (s+1)*k]
	}
	for s := range out.Base {
		out.Base[s] = a.subs[s].portion
	}
	return out
}

// String renders the snapshot one fact a line, every map in key order:
// the digest testdata/install_digests.txt hashes, so its format is check
// data.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, a := range s.Classes {
		fmt.Fprintf(&b, "class %d: cl=%+v prefix=%v subs=%v w=%v base=%v inst=%v global=%v tags=%v\n",
			int(a.Class.ID), a.Class, a.Prefix, a.Subclasses, a.Weights, a.Base, a.Instances, a.Global, a.Tags)
	}
	for _, id := range sortedKeys(s.Portions) {
		fmt.Fprintf(&b, "portion %s=%.9f\n", id, s.Portions[id])
	}
	for _, v := range sortedKeys(s.GlobalTags) {
		fmt.Fprintf(&b, "gtags %d=%v\n", v, s.GlobalTags[v])
	}
	for _, v := range sortedKeys(s.Pools) {
		for _, nf := range sortedKeys(s.Pools[v]) {
			fmt.Fprintf(&b, "pool %d/%d=%v\n", v, int(nf), s.Pools[v][nf])
		}
	}
	fmt.Fprintf(&b, "orch=%v\n", s.Instances)
	for _, v := range sortedKeys(s.HostUsed) {
		fmt.Fprintf(&b, "hostres %d=%+v\n", v, s.HostUsed[v])
	}
	for _, t := range s.Tables {
		dev := "sw"
		if t.VSwitch {
			dev = "vsw"
		}
		for _, r := range t.Rules {
			fmt.Fprintf(&b, "%s %d/%d %s\n", dev, t.Node, t.Table, fmtRule(r))
		}
	}
	return b.String()
}

// fmtField renders one match field: its value, or "-" for a wildcard.
func fmtField[T any](v T, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprint(v)
}

// fmtRule renders a rule field by field, so two semantically identical
// tables produce identical digests. The format is the digests' own:
// wildcards print as "-" and each action as {Type Port Tag Table},
// whatever the order of the types' fields in memory.
func fmtRule(r flowtable.Rule) string {
	m := r.Match
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = fmt.Sprintf("{%v %d %d %d}", a.Type, a.Port, a.Tag, a.Table)
	}
	return fmt.Sprintf("%s p%d ht=%s st=%s in=%s src=%s dst=%s proto=%s sp=%s dp=%s act=[%s]",
		r.Name, r.Priority, fmtField(m.HostTag()), fmtField(m.SubTag()), fmtField(m.InPort()),
		fmtField(m.Src()), fmtField(m.Dst()), fmtField(m.Proto()), fmtField(m.SrcPort()), fmtField(m.DstPort()),
		strings.Join(acts, " "))
}
