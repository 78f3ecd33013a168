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
	"github.com/apple-nfv/apple/internal/tagging"
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
}

// Assignment is the controller's record of one class's data-plane state:
// its matching prefix, its sub-classes (hop vectors plus current traffic
// weights), and the concrete instance serving each (sub-class, chain
// position).
type Assignment struct {
	Class  core.Class
	Prefix flowtable.Prefix
	// Subclasses hold the hop vectors; Weights the *current* portions
	// (fast failover temporarily reshapes them; Base keeps the originals
	// for rollback).
	Subclasses []core.Subclass
	Weights    []float64
	Base       []float64
	// Instances[s][j] is the instance serving chain position j of
	// sub-class s.
	Instances [][]vnf.ID
	// Global marks classes whose chain rewrites packet headers (NAT, §X):
	// downstream matching cannot rely on the source address, so their
	// sub-class tags come from the globally unique half of the tag space
	// and vSwitch rules match on the tag alone.
	Global bool
	// SubTags[s] is the data-plane tag of sub-class s.
	SubTags []uint8
}

// Controller is the APPLE control plane.
type Controller struct {
	g        *topology.Graph
	clock    *sim.Simulation
	orch     *orchestrator.Orchestrator
	alloc    *tagging.Allocator
	switches map[topology.NodeID]*Switch
	hosts    map[topology.NodeID]*host.Host
	nbrPort  map[topology.NodeID]map[topology.NodeID]int
	// assign holds per-class data-plane state behind one RWMutex, so
	// Forward and enforcement probes can read it while the single writer
	// commits. txn-owned: admit and install paths mutate it only through
	// staged RuleTxn ops.
	assign *assignStore
	// instPool[v][nf] lists the running instances available at v.
	// txn-owned: admit and re-optimization paths mutate it only through
	// staged RuleTxn ops.
	instPool map[topology.NodeID]map[policy.NF][]*vnf.Instance
	// instPortion tracks the total traffic portion×rate assigned per
	// instance, for least-loaded selection. txn-owned: admit and
	// re-optimization paths mutate it only through staged RuleTxn ops.
	instPortion map[vnf.ID]float64
	// ruleUpdates counts TCAM rule (re)installations, each costing the
	// measured 70 ms when driven through the clock. Atomic: read by
	// RuleUpdates from goroutines other than the writer.
	ruleUpdates atomic.Int64
	// hostGlobalTags tracks, per hosting switch, the global sub-class
	// tags in use by header-rewriting classes steered through its APPLE
	// host (§X). Their vSwitch rules match ⟨in-port, tag⟩ without a
	// source prefix, so two such classes visiting the same host must not
	// share a tag. txn-owned: admit and re-optimization paths mutate it
	// only through staged RuleTxn ops.
	hostGlobalTags map[topology.NodeID]map[uint8]bool
	// tracer journals flow-setup and failover events on the virtual
	// clock; nil (the default) disables tracing with no allocation on the
	// setup hot path. Set at construction, never mutated afterwards.
	tracer *trace.Recorder
	// passByDone short-circuits ensurePassBy once every switch carries
	// the rule. Confined to the commit path (sequential admit stage and
	// unwind); never read by the parallel emit/apply workers. txn-owned:
	// entry points mutate it only through staged RuleTxn ops.
	passByDone bool
	// failpoint, when non-nil, runs at every named step of every rule
	// transaction; a non-nil return aborts the transaction there (test
	// hook for the fault-injection suite).
	failpoint func(point string) error
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
// hosting switch.
func New(cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, errors.New("controller: nil topology")
	}
	if cfg.Clock == nil {
		return nil, errors.New("controller: nil clock")
	}
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
		g:              cfg.Topology,
		clock:          cfg.Clock,
		orch:           orch,
		alloc:          tagging.NewAllocator(),
		switches:       make(map[topology.NodeID]*Switch),
		hosts:          make(map[topology.NodeID]*host.Host),
		nbrPort:        make(map[topology.NodeID]map[topology.NodeID]int),
		assign:         newAssignStore(),
		instPool:       make(map[topology.NodeID]map[policy.NF][]*vnf.Instance),
		instPortion:    make(map[vnf.ID]float64),
		hostGlobalTags: make(map[topology.NodeID]map[uint8]bool),
		tracer:         cfg.Tracer,
	}
	for _, n := range cfg.Topology.Nodes() {
		pl, err := flowtable.NewPipeline(2)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		c.switches[n.ID] = &Switch{ID: n.ID, Pipeline: pl}
		nbrs, err := cfg.Topology.Neighbors(n.ID)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		ports := make(map[topology.NodeID]int, len(nbrs))
		for i, nb := range nbrs {
			ports[nb] = firstNeighborPort + i
		}
		c.nbrPort[n.ID] = ports
	}
	hostSwitches := cfg.HostSwitches
	if hostSwitches == nil {
		for _, n := range cfg.Topology.Nodes() {
			hostSwitches = append(hostSwitches, n.ID)
		}
	}
	for _, v := range hostSwitches {
		if _, ok := c.switches[v]; !ok {
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
		c.hosts[v] = h
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

// InstancePortions returns a copy of the per-instance planned-load
// ledger. Callers must be quiesced with respect to commits (the same
// contract as Avail).
func (c *Controller) InstancePortions() map[vnf.ID]float64 {
	out := make(map[vnf.ID]float64, len(c.instPortion))
	for id, p := range c.instPortion {
		out[id] = p
	}
	return out
}

// HostGlobalTags returns, per hosting switch, the sorted global
// sub-class tags in use by header-rewriting classes steered through it.
// Callers must be quiesced with respect to commits.
func (c *Controller) HostGlobalTags() map[topology.NodeID][]uint8 {
	out := make(map[topology.NodeID][]uint8, len(c.hostGlobalTags))
	for v, tags := range c.hostGlobalTags {
		if len(tags) == 0 {
			continue
		}
		out[v] = sortedKeys(tags)
	}
	return out
}

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
	hostBits := uint32(32 - a.Prefix.Len)
	src := a.Prefix.Addr | (sub & (1<<hostBits - 1))
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

// repoolInstance moves an instance at switch v to the pool bucket
// matching its current NF type — the cleanup a ClickOS reconfiguration
// needs, since the instance was pooled under the NF it had before. The
// portion bookkeeping is keyed by ID and unaffected.
func (c *Controller) repoolInstance(v topology.NodeID, inst *vnf.Instance) {
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

// findInstance locates a placed instance by ID.
func (c *Controller) findInstance(id vnf.ID) (*vnf.Instance, error) {
	for _, byNF := range c.instPool {
		for _, insts := range byNF {
			for _, inst := range insts {
				if inst.ID() == id {
					return inst, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("controller: unknown instance %s", id)
}

// Tag space split (§X): classes whose chains keep headers intact multiplex
// tags [0, globalTagBase) per class; header-rewriting chains draw tags
// from [globalTagBase, MaxSubTag], unique among classes sharing an
// instance (their steering rules match the tag without a source prefix).
const globalTagBase = 32

// subclassHosts returns the distinct hosting switches a sub-class with
// the given hop vector visits.
func subclassHosts(cl core.Class, hops []int) []topology.NodeID {
	seen := make(map[topology.NodeID]bool, len(hops))
	var out []topology.NodeID
	for _, h := range hops {
		v := cl.Path[h]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// allocSubTagFor hands the tag for the assignment's next sub-class, given
// the hosting switches that sub-class will visit: the sub-class index for
// normal classes; for header-rewriting classes, the smallest upper-half
// tag free on every visited host, which it marks used (recorded in txn;
// nil outside a transaction).
func (c *Controller) allocSubTagFor(a *Assignment, hosts []topology.NodeID, txn *RuleTxn) (uint8, error) {
	if !a.Global {
		idx := len(a.SubTags)
		if idx >= globalTagBase {
			return 0, fmt.Errorf("controller: class %d exceeds %d local sub-classes", a.Class.ID, globalTagBase)
		}
		return uint8(idx), nil
	}
	for tag := uint8(globalTagBase); tag <= uint8(flowtable.MaxSubTag); tag++ {
		free := true
		for _, v := range hosts {
			if c.hostGlobalTags[v][tag] {
				free = false
				break
			}
		}
		// The tag must also differ from the class's own other sub-classes
		// (they share the ingress classification stage).
		for _, used := range a.SubTags {
			if used == tag {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, v := range hosts {
			c.setGlobalTag(txn, v, tag, true)
		}
		return tag, nil
	}
	return 0, fmt.Errorf("controller: no conflict-free global tag for class %d (hosts too shared)", a.Class.ID)
}

// releaseSubTags frees a class's tail global tags from their hosts when
// fast failover rolls back, an install aborts, or a transaction retires
// the class (txn is nil outside a transaction).
func (c *Controller) releaseSubTags(a *Assignment, from int, txn *RuleTxn) {
	if !a.Global {
		return
	}
	for s := from; s < len(a.SubTags); s++ {
		if s >= len(a.Subclasses) {
			continue
		}
		tag := a.SubTags[s]
		for _, v := range subclassHosts(a.Class, a.Subclasses[s].Hops) {
			c.setGlobalTag(txn, v, tag, false)
		}
	}
}

// CheckTables scans every physical switch and vSwitch table for shadowed
// rules — entries that can never match because an earlier rule subsumes
// them. The Rule Generator should never produce any; a non-empty result
// indicates a broken sub-class.
func (c *Controller) CheckTables() error {
	for v, sw := range c.switches {
		for ti := 0; ti < sw.Pipeline.NumTables(); ti++ {
			t, err := sw.Pipeline.Table(ti)
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
			if sh := t.Shadowed(); len(sh) > 0 {
				return fmt.Errorf("controller: switch %d table %d has shadowed rules %v", v, ti, sh)
			}
		}
	}
	for v, h := range c.hosts {
		for ti := 0; ti < h.VSwitch().NumTables(); ti++ {
			t, err := h.VSwitch().Table(ti)
			if err != nil {
				return fmt.Errorf("controller: %w", err)
			}
			if sh := t.Shadowed(); len(sh) > 0 {
				return fmt.Errorf("controller: host at %d table %d has shadowed rules %v", v, ti, sh)
			}
		}
	}
	return nil
}

// InstallACL installs an access-control drop rule for the given source
// prefix in every switch's "other applications" table — the coexistence
// path of Fig 1: access control, routing, and traffic engineering keep
// owning the next table while APPLE's table only classifies and tags.
// The rule outranks routing but, by Table III's design, never disturbs
// APPLE's steering of permitted traffic.
func (c *Controller) InstallACL(name string, src flowtable.Prefix) error {
	for _, sw := range c.switches {
		if err := c.install(sw.Pipeline, TableRouting, flowtable.Rule{
			Name:     name,
			Priority: 100, // above routing's 10
			Match:    flowtable.Match{Src: flowtable.PrefixPtr(src)},
			Actions:  []flowtable.Action{{Type: flowtable.ActDrop}},
		}); err != nil {
			return err
		}
	}
	return nil
}
