// Package controller implements APPLE's control plane (§III): the Rule
// Generator that compiles the Optimization Engine's placement into
// physical-switch TCAM pipelines (Table III) and vSwitch steering rules,
// the network model the rules are installed into, and the Dynamic Handler
// that performs fast failover on overload notifications (§VI).
//
// The data plane it programs is faithful to Fig 2/Fig 3: packets are
// classified and tagged once at their ingress switch, host-match rules
// steer tagged packets into APPLE hosts, vSwitch rules walk them through
// the right VNF instances in chain order, and the host tag is rewritten to
// the next APPLE host (or Fin) on the way out.
package controller

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Physical switch port conventions.
const (
	// PortDeliver means the packet reached its destination switch and
	// leaves the network.
	PortDeliver = 0
	// PortHost is the port facing the switch's APPLE host.
	PortHost = 999
	// neighbor ports are 1 + the neighbor's index in insertion order.
	firstNeighborPort = 1
)

// Table indices within a physical switch pipeline (Table III: APPLE's
// table first, "rules of other applications are stored in the next
// table").
const (
	TableAPPLE   = 0
	TableRouting = 1
)

// Rule priorities within the APPLE table.
const (
	prioHostMatch = 300
	prioClassify  = 200
	prioPassBy    = 0
)

// Switch is one physical SDN switch: a two-table pipeline plus its port
// map.
type Switch struct {
	ID       topology.NodeID
	Pipeline *flowtable.Pipeline
	// nbrs[p-firstNeighborPort] is the switch behind neighbour port p, host
	// the APPLE host on PortHost (nil if none), hostTag the host ID that
	// names it (0 if none) and route the name of every switch's routing
	// rule toward this one, "route-<ID>". All are set in New and never
	// written again, so packet walks, the rule emitters and the audits
	// read them without a lock.
	nbrs    []*Switch
	host    *host.Host
	hostTag uint16
	route   string
}

// Assignment is the controller's record of one class's data-plane state:
// its sub-classes — hop vector, planned portion, current weight and tag
// each — and the concrete instance serving each (sub-class, chain
// position). Its matching prefix is ClassPrefix(Class.ID), recomputed on
// demand. An installed Assignment is never written in place: the Dynamic
// Handler reshapes a clone, re-optimization builds a replacement, and the
// store swaps the pointer.
type Assignment struct {
	Class core.Class
	// subs are the sub-classes, the nBase the placement planned first and
	// those the Dynamic Handler appended after them.
	subs []subRecord
	// insts[s*len(Class.Chain)+j] is the instance serving chain position j
	// of sub-class s: one flat array, a row per sub-class.
	insts []vnf.ID
	// gen names the generation (sameGeneration): installs, updates,
	// rate-only refreshes and rollbacks draw a new one from the controller,
	// while the Dynamic Handler's reshapes keep it.
	gen uint32
	// since is the generation the class's path was installed under: an
	// install's own, kept by every later assignment on the same path, so
	// the oldest class crossing a switch is the one with the least since
	// (routeHold).
	since uint32
	// nBase counts the base sub-classes, the ones a rollback restores; at
	// most globalTagBase of them are ever admitted.
	nBase uint8
	// Global marks classes whose chain rewrites packet headers (NAT, §X):
	// downstream matching cannot rely on the source address, so their
	// sub-class tags come from the globally unique half of the tag space
	// and vSwitch rules match on the tag alone.
	Global bool
}

// subRecord is one sub-class of an Assignment.
type subRecord struct {
	// hops[j] indexes Class.Path: chain position j is served there. Never
	// written in place, so clones share it.
	hops []int
	// portion is the planned share (core.Subclass.Portion): for a base
	// sub-class, the weight a rollback restores and what the
	// instance-portion ledger charges (Assignment.charge).
	portion float64
	// weight is the current share; fast failover reshapes it on a clone.
	weight float64
	// tag is the sub-class's data-plane tag.
	tag uint8
}

// Prefix returns the class's matching source prefix.
func (a *Assignment) Prefix() flowtable.Prefix {
	p, _ := ClassPrefix(a.Class.ID) // an installed class is inside the plan
	return p
}

// NumSubclasses returns how many sub-classes the class has, Dynamic
// Handler additions included.
func (a *Assignment) NumSubclasses() int { return len(a.subs) }

// NumBase returns how many of them are base sub-classes: the first
// NumBase, which a rollback keeps.
func (a *Assignment) NumBase() int { return int(a.nBase) }

// Subclass returns sub-class s's hop vector and planned portion. The hop
// vector is the assignment's own and must not be written.
func (a *Assignment) Subclass(s int) core.Subclass {
	return core.Subclass{Portion: a.subs[s].portion, Hops: a.subs[s].hops}
}

// Weight returns sub-class s's current traffic weight.
func (a *Assignment) Weight(s int) float64 { return a.subs[s].weight }

// Instances returns the instances serving sub-class s, in chain order.
// The row is the assignment's own and must not be written.
func (a *Assignment) Instances(s int) []vnf.ID {
	k := len(a.Class.Chain)
	return a.insts[s*k : (s+1)*k : (s+1)*k]
}

// clone returns a copy of a for the Dynamic Handler to reshape: the
// sub-class records, whose weights a reshape writes, are its own; hop
// vectors and the instance array stay shared. The instance array is
// clipped, so a row the reshape appends lands in a fresh array.
func (a *Assignment) clone() *Assignment {
	b := *a
	b.subs = slices.Clone(a.subs)
	b.insts = slices.Clip(a.insts)
	return &b
}

// addSubclass appends sub-class r, served by the instances of sub-class
// src but for chain position j, which inst serves. Only a clone is ever
// extended, so the append copies the clipped instance array.
func (a *Assignment) addSubclass(r subRecord, src, j int, inst vnf.ID) {
	k := len(a.Class.Chain)
	a.subs = append(a.subs, r)
	a.insts = append(a.insts, a.insts[src*k:(src+1)*k]...)
	a.insts[len(a.insts)-k+j] = inst
}

// Controller is the APPLE control plane.
type Controller struct {
	g        *topology.Graph
	clock    *sim.Simulation
	orch     *orchestrator.Orchestrator
	switches map[topology.NodeID]*Switch
	hosts    map[topology.NodeID]*host.Host
	nbrPort  map[topology.NodeID]map[topology.NodeID]int
	// assign holds per-class data-plane state, and the instance-portion
	// ledger that follows it, behind one RWMutex, so Forward and
	// enforcement probes can read it while the single writer commits.
	// txn-owned: admit and install paths mutate it only through staged
	// RuleTxn ops.
	assign *assignStore
	// instPool[v][nf] lists the running instances available at v.
	// txn-owned: admit and re-optimization paths mutate it only through
	// staged RuleTxn ops.
	instPool map[topology.NodeID]map[policy.NF][]*vnf.Instance
	// ruleUpdates counts TCAM rule (re)installations, each costing the
	// measured 70 ms when driven through the clock. Atomic: read by
	// RuleUpdates from goroutines other than the writer.
	ruleUpdates atomic.Int64
	// tracer journals flow-setup and failover events on the virtual
	// clock; nil (the default) disables tracing with no allocation on the
	// setup hot path. Set at construction, never mutated afterwards.
	tracer *trace.Recorder
	// reopt is ReOptimize's scratch, reused from pass to pass. Confined to
	// the single writer.
	reopt reoptScratch
	// spare is the transaction buffer set the next Begin takes (nil while
	// a transaction holds it), and steps the store of the rule steps a
	// transaction compiles and applies. Confined to the single writer.
	spare *txnScratch
	steps ruleSteps
	// gen is the last assignment generation handed out (nextGen). Confined
	// to the single writer; an unwind does not take numbers back.
	gen uint32
	// actions holds every distinct action list the rule emitter has handed
	// out, keyed by value: rules carrying equal lists share one clipped,
	// read-only slice. Never pruned, it is bounded by the tag × port ×
	// table space, not by the class count. Confined to the single writer.
	actions actionMemo
	// failpoint, when non-nil, runs at every named step of every rule
	// transaction; a non-nil return aborts the transaction there (test
	// hook for the fault-injection suite).
	failpoint func(point string) error
	// published, when non-nil, runs after every table batch a rule
	// transaction applies and after every one its unwind reverts, with the
	// table's key: each moment a packet can first meet a table's new rules
	// (test hook for the publication walks). It must not keep the key's
	// batch or any transaction buffer.
	published func(tableKey)
}

// Config for New.
type Config struct {
	Topology *topology.Graph
	Clock    *sim.Simulation
	// HostResources is the hardware of the single APPLE host created at
	// each hosting switch; zero value uses host.DefaultResources.
	HostResources policy.Resources
	// HostSwitches lists switches that get an APPLE host; nil means every
	// switch.
	HostSwitches []topology.NodeID
	// HostResourcesBySwitch overrides HostResources per switch (the
	// UNIV1-style edge-heavy deployment). Switches absent from the map
	// fall back to HostResources.
	HostResourcesBySwitch map[topology.NodeID]policy.Resources
	// Seed drives orchestrator boot-time jitter.
	Seed int64
	// Faults optionally injects lifecycle failures into the orchestrator
	// (boot failures and timeouts, lost reconfigure/cancel RPCs, host
	// crashes). Nil — or a zero plan — perturbs nothing.
	Faults *orchestrator.FaultPlan
	// Tracer, when non-nil, journals flow-setup, failover, and VNF
	// lifecycle events with virtual-time stamps. The recorder should be
	// built on the same Clock so event times match the simulation.
	Tracer *trace.Recorder
}

// New builds a controller, its switch pipelines, and one APPLE host per
// hosting switch. Each switch's APPLE table starts with Table III's
// deployment rows: every switch its pass-by row, and every hosting switch
// the host-match row of its host, whose tag is 1 + the switch's rank among
// the hosting switches. Nothing removes or re-tags them, so they do not
// depend on which classes came and went.
func New(cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, errors.New("controller: nil topology")
	}
	if cfg.Clock == nil {
		return nil, errors.New("controller: nil clock")
	}
	hostSwitches := cfg.HostSwitches
	if hostSwitches == nil {
		for _, n := range cfg.Topology.Nodes() {
			hostSwitches = append(hostSwitches, n.ID)
		}
	}
	if len(hostSwitches) > int(flowtable.MaxHostTag) {
		return nil, fmt.Errorf("controller: %d hosting switches, but the 12-bit VLAN host tag names at most %d hosts",
			len(hostSwitches), flowtable.MaxHostTag)
	}
	ranked := slices.Clone(hostSwitches)
	slices.Sort(ranked)
	res := cfg.HostResources
	if res.Cores == 0 {
		res = host.DefaultResources()
	}
	orch, err := orchestrator.New(cfg.Clock, orchestrator.DefaultLatencies(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if cfg.Faults != nil {
		if err := orch.InjectFaults(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
	}
	orch.SetTracer(cfg.Tracer)
	c := &Controller{
		g:        cfg.Topology,
		clock:    cfg.Clock,
		orch:     orch,
		switches: make(map[topology.NodeID]*Switch),
		hosts:    make(map[topology.NodeID]*host.Host),
		nbrPort:  make(map[topology.NodeID]map[topology.NodeID]int),
		assign:   newAssignStore(cfg.Topology.NumNodes()),
		steps:    newRuleSteps(cfg.Topology.NumNodes()),
		instPool: make(map[topology.NodeID]map[policy.NF][]*vnf.Instance),
		tracer:   cfg.Tracer,
		actions:  make(actionMemo),
	}
	// Table III's last APPLE row: whatever no class rule matches goes on
	// to the other applications' table.
	passBy := flowtable.Rule{
		Name: "pass-by", Priority: prioPassBy,
		Actions: c.actions.of(flowtable.Action{Type: flowtable.ActGotoTable, Table: TableRouting}),
	}
	for _, n := range cfg.Topology.Nodes() {
		pl, err := flowtable.NewPipeline(2)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		c.switches[n.ID] = &Switch{ID: n.ID, Pipeline: pl, route: fmt.Sprintf("route-%d", n.ID)}
		if err := c.install(pl, TableAPPLE, passBy); err != nil {
			return nil, err
		}
	}
	for _, n := range cfg.Topology.Nodes() {
		nbrs, err := cfg.Topology.Neighbors(n.ID)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		sw := c.switches[n.ID]
		sw.nbrs = make([]*Switch, len(nbrs))
		ports := make(map[topology.NodeID]int, len(nbrs))
		for i, nb := range nbrs {
			ports[nb] = firstNeighborPort + i
			sw.nbrs[i] = c.switches[nb]
		}
		c.nbrPort[n.ID] = ports
	}
	toHost := c.actions.of(flowtable.Action{Type: flowtable.ActForward, Port: PortHost})
	for _, v := range hostSwitches {
		sw, ok := c.switches[v]
		if !ok {
			return nil, fmt.Errorf("controller: host switch %d not in topology", v)
		}
		hres := res
		if r, ok := cfg.HostResourcesBySwitch[v]; ok {
			hres = r
		}
		h, err := host.New(fmt.Sprintf("apple-host@%d", v), v, hres)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		if err := orch.AddHost(h); err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		rank, _ := slices.BinarySearch(ranked, v)
		c.hosts[v] = h
		sw.host, sw.hostTag = h, uint16(1+rank)
		// Table III's first row: packets tagged for this host go to it.
		if err := c.install(sw.Pipeline, TableAPPLE, flowtable.Rule{
			Name: "host-match", Priority: prioHostMatch,
			Match:   flowtable.Match{}.WithHostTag(sw.hostTag),
			Actions: toHost,
		}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Orchestrator exposes the resource orchestrator (for A_v polling and
// instance lifecycle).
func (c *Controller) Orchestrator() *orchestrator.Orchestrator { return c.orch }

// Switch returns the switch model for v.
func (c *Controller) Switch(v topology.NodeID) (*Switch, error) {
	sw, ok := c.switches[v]
	if !ok {
		return nil, fmt.Errorf("controller: unknown switch %d", v)
	}
	return sw, nil
}

// Host returns the APPLE host at v.
func (c *Controller) Host(v topology.NodeID) (*host.Host, error) {
	h, ok := c.hosts[v]
	if !ok {
		return nil, fmt.Errorf("controller: no APPLE host at switch %d", v)
	}
	return h, nil
}

// Avail reports per-switch free resources (the Optimization Engine's A_v
// input).
func (c *Controller) Avail() map[topology.NodeID]policy.Resources {
	out := make(map[topology.NodeID]policy.Resources, len(c.hosts))
	for v := range c.hosts {
		out[v] = c.orch.Available(v)
	}
	return out
}

// RuleUpdates returns the number of TCAM rule installations performed.
func (c *Controller) RuleUpdates() int { return int(c.ruleUpdates.Load()) }

// Assignment returns the data-plane assignment of a class.
func (c *Controller) Assignment(id core.ClassID) (*Assignment, error) {
	a, ok := c.assign.get(id)
	if !ok {
		return nil, fmt.Errorf("controller: class %d not installed", id)
	}
	return a, nil
}

// Classes returns the installed class IDs, sorted.
func (c *Controller) Classes() []core.ClassID {
	return c.assign.ids()
}

// sortedKeys returns m's keys in ascending order: the deterministic
// iteration every result-affecting walk over a map uses.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Switches returns every switch ID modeled by this controller, sorted.
func (c *Controller) Switches() []topology.NodeID { return sortedKeys(c.switches) }

// Hosts returns the switches with an APPLE host, sorted.
func (c *Controller) Hosts() []topology.NodeID { return sortedKeys(c.hosts) }

// MaxClassID is the largest class ID the synthetic address plan can
// express (the /24 extension plan below: 2^20 classes).
const MaxClassID = 1<<20 - 1

// ClassPrefix returns the srcIP prefix identifying class id's flows in
// the synthetic header plan. IDs below 4096 use the original plan —
// 10.0.0.0/8 carved into /20 blocks — unchanged, so every address the
// paper-scale experiments pinned stays put. IDs 4096..2^20-1 extend the
// plan into 16.0.0.0/4 carved into /24 blocks, giving million-class
// workloads (applebench's FatTree IDs already pass 41 k) an ID space
// three orders of magnitude wider. Both planes leave 8 suffix bits below
// the prefix, which is exactly what the splitBits=8 address-split
// classification needs, and neither overlaps the 172.16/12 destination
// plan.
func ClassPrefix(id core.ClassID) (flowtable.Prefix, error) {
	if id < 0 || id > MaxClassID {
		return flowtable.Prefix{}, fmt.Errorf("controller: class ID %d outside the address plan", id)
	}
	if id < 1<<12 {
		return flowtable.Prefix{Addr: 10<<24 | uint32(id)<<12, Len: 20}, nil
	}
	return flowtable.Prefix{Addr: 1<<28 | uint32(id)<<8, Len: 24}, nil
}

// DstAddr returns a host address behind destination switch d in the
// synthetic plan (172.16.d.1, d < 4096 via the second octet pair).
func DstAddr(d topology.NodeID) (uint32, error) {
	if d < 0 || d >= 1<<12 {
		return 0, fmt.Errorf("controller: switch %d outside the destination plan", d)
	}
	return 172<<24 | 16<<16 | uint32(d)<<4 | 1, nil
}

// dstPrefix is the routing prefix for switch d.
func dstPrefix(d topology.NodeID) flowtable.Prefix {
	return flowtable.Prefix{Addr: 172<<24 | 16<<16 | uint32(d)<<4, Len: 28}
}

// FlowHeader builds a concrete 5-tuple for a flow of the class toward its
// path's final switch; sub selects different source hosts (and therefore,
// under the address-split scheme, potentially different sub-classes).
func (c *Controller) FlowHeader(id core.ClassID, sub uint32) (headerspace.Header, error) {
	a, err := c.Assignment(id)
	if err != nil {
		return headerspace.Header{}, err
	}
	dst, err := DstAddr(a.Class.Path[len(a.Class.Path)-1])
	if err != nil {
		return headerspace.Header{}, err
	}
	prefix := a.Prefix()
	hostBits := uint32(32 - prefix.Len)
	src := prefix.Addr | (sub & (1<<hostBits - 1))
	return headerspace.Header{
		SrcIP: src,
		DstIP: dst,
		Proto: headerspace.ProtoTCP,
	}, nil
}

// poolAdd registers an instance under its switch/NF pool bucket.
func (c *Controller) poolAdd(v topology.NodeID, nf policy.NF, inst *vnf.Instance) {
	if c.instPool[v] == nil {
		c.instPool[v] = make(map[policy.NF][]*vnf.Instance)
	}
	c.instPool[v][nf] = append(c.instPool[v][nf], inst)
}

// repoolInstance pools an instance at switch v under the bucket of its
// current NF type, out of any other — a ClickOS reconfiguration changes
// the NF it was pooled under. The portion ledger is keyed by ID and
// unaffected. txn records the buckets for unwind; it is nil when a failover
// spawn is disposed of.
func (c *Controller) repoolInstance(v topology.NodeID, inst *vnf.Instance, txn *RuleTxn) {
	if txn != nil {
		txn.trackPool(v)
	}
	id := inst.ID()
	for nf, insts := range c.instPool[v] {
		if nf == inst.NF() {
			continue
		}
		kept := insts[:0]
		for _, other := range insts {
			if other.ID() != id {
				kept = append(kept, other)
			}
		}
		// Same tail-aliasing hazard as dropFromPool: the truncated slots
		// keep the moved instance reachable from the old bucket's array.
		clear(insts[len(kept):])
		if len(kept) == 0 {
			delete(c.instPool[v], nf)
			continue
		}
		c.instPool[v][nf] = kept
	}
	for _, other := range c.instPool[v][inst.NF()] {
		if other.ID() == id {
			return
		}
	}
	c.poolAdd(v, inst.NF(), inst)
}

// pooledByID lists the pooled instances in ID order.
func (c *Controller) pooledByID() []*vnf.Instance {
	n := 0
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			n += len(insts)
		}
	}
	out := make([]*vnf.Instance, 0, n)
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			out = append(out, insts...)
		}
	}
	slices.SortFunc(out, func(a, b *vnf.Instance) int { return cmp.Compare(a.ID(), b.ID()) })
	return out
}

// pooledAt reports whether instance id is pooled at switch v.
func (c *Controller) pooledAt(v topology.NodeID, id vnf.ID) bool {
	for _, insts := range c.instPool[v] {
		for _, inst := range insts {
			if inst.ID() == id {
				return true
			}
		}
	}
	return false
}

// Tag space split (§X): classes whose chains keep headers intact multiplex
// tags [0, globalTagBase) per class; header-rewriting chains draw tags
// from [globalTagBase, MaxSubTag], unique among classes sharing a host:
// their steering rules match ⟨in-port, tag⟩ without a source prefix.
// Which global tags a host holds is read off the class records
// (globalTags); nothing else records it.
const globalTagBase = 32

// subclassHosts returns the distinct hosting switches a sub-class with
// the given hop vector visits, in hop order: every class needs them to
// find its steering rules, and a header-rewriting class's tag is unique on
// them. A hop vector never decreases and a path never revisits a switch,
// so they are the hops that differ from the hop before.
func subclassHosts(cl core.Class, hops []int) []topology.NodeID {
	var out []topology.NodeID
	for j, h := range hops {
		if j == 0 || h != hops[j-1] {
			out = append(out, cl.Path[h])
		}
	}
	return out
}

// globalTags returns the tags of a's sub-classes that visit any of hosts,
// bit t for tag t, when a is a header-rewriting class, and none otherwise.
// A nil assignment holds none.
func (a *Assignment) globalTags(hosts []topology.NodeID) uint64 {
	if a == nil || !a.Global {
		return 0
	}
	var set uint64
	for s, r := range a.subs {
		for _, v := range hosts {
			if a.visits(s, v) {
				set |= 1 << r.tag
				break
			}
		}
	}
	return set
}

// allocSubTagFor hands the tag for the assignment's next sub-class, given
// the hop vector that sub-class will follow: the sub-class index for
// normal classes; for header-rewriting classes, the smallest upper-half
// tag that none of the class's own sub-classes holds (they share the
// ingress classification stage) and that no other header-rewriting
// sub-class holds on a hosting switch it visits: neither an installed one
// nor one that a reshape staged in txn (nil outside a transaction) adds.
func (c *Controller) allocSubTagFor(a *Assignment, hops []int, txn *RuleTxn) (uint8, error) {
	if !a.Global {
		idx := len(a.subs)
		if idx >= globalTagBase {
			return 0, fmt.Errorf("controller: class %d exceeds %d local sub-classes", a.Class.ID, globalTagBase)
		}
		return uint8(idx), nil
	}
	hosts := subclassHosts(a.Class, hops)
	var used uint64
	for _, r := range a.subs {
		used |= 1 << r.tag
	}
	used |= c.assign.globalTags(hosts)
	if txn != nil {
		for _, op := range txn.staged {
			used |= op.next.globalTags(hosts)
		}
	}
	for tag := uint8(globalTagBase); tag <= flowtable.MaxSubTag; tag++ {
		if used&(1<<tag) == 0 {
			return tag, nil
		}
	}
	return 0, fmt.Errorf("controller: no conflict-free global tag for class %d (hosts too shared)", a.Class.ID)
}

// nextGen hands out a new assignment generation.
func (c *Controller) nextGen() uint32 {
	c.gen++
	return c.gen
}

// eachTable calls f on every flow table the controller programs: each
// switch's pipeline tables, then each host's vSwitch tables, in ascending
// node order and table order within a device. It stops at f's first
// error. This is the one place that decides which tables a controller
// has and in what order.
func (c *Controller) eachTable(f func(tableKey, *flowtable.Table) error) error {
	visit := func(dev device, pl *flowtable.Pipeline) error {
		for ti := 0; ti < pl.NumTables(); ti++ {
			t, err := pl.Table(ti)
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
			if err := f(tableKey{dev: dev, table: ti}, t); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range c.Switches() {
		if err := visit(device{node: v}, c.switches[v].Pipeline); err != nil {
			return err
		}
	}
	for _, v := range c.Hosts() {
		if err := visit(device{vswitch: true, node: v}, c.hosts[v].VSwitch()); err != nil {
			return err
		}
	}
	return nil
}

// CheckTables scans every physical switch and vSwitch table for shadowed
// rules — entries that can never match because an earlier rule subsumes
// them — and reports the first offender in eachTable order. The Rule
// Generator should never produce any; a non-empty result indicates a
// broken sub-class.
func (c *Controller) CheckTables() error {
	return c.eachTable(func(k tableKey, t *flowtable.Table) error {
		sh := t.Shadowed()
		switch {
		case len(sh) == 0:
			return nil
		case k.dev.vswitch:
			return fmt.Errorf("controller: host at %d table %d has shadowed rules %v", k.dev.node, k.table, sh)
		default:
			return fmt.Errorf("controller: switch %d table %d has shadowed rules %v", k.dev.node, k.table, sh)
		}
	})
}

// InstallACL installs an access-control drop rule for the given source
// prefix in every switch's "other applications" table — the coexistence
// path of Fig 1: access control, routing, and traffic engineering keep
// owning the next table while APPLE's table only classifies and tags.
// The rule outranks routing but, by Table III's design, never disturbs
// APPLE's steering of permitted traffic. No driver installs an ACL yet;
// TestACLCoexistsWithAPPLE exercises the path.
func (c *Controller) InstallACL(name string, src flowtable.Prefix) error {
	for _, sw := range c.switches {
		if err := c.install(sw.Pipeline, TableRouting, flowtable.Rule{
			Name:     name,
			Priority: 100, // above routing's 10
			Match:    flowtable.Match{}.WithSrc(src),
			Actions:  []flowtable.Action{{Type: flowtable.ActDrop}},
		}); err != nil {
			return err
		}
	}
	return nil
}
