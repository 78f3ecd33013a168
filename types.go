// Package apple is the public API of the APPLE NFV orchestration
// framework — a from-scratch reproduction of "An NFV Orchestration
// Framework for Interference-free Policy Enforcement" (Li & Qian,
// ICDCS 2016).
//
// APPLE places virtual network function instances on flows' existing
// forwarding paths so that policy chains (e.g. firewall → IDS → proxy)
// are enforced without rerouting any flow (interference freedom) and with
// every instance isolated in its own VM. The three pillars are:
//
//   - the Optimization Engine (§IV): an ILP, solved by LP relaxation,
//     that minimizes VNF instances subject to chain order, capacity, and
//     per-host resource constraints;
//   - the flow-tagging data plane (§V): sub-class tags assigned once at
//     the ingress switch, host-ID tags steering packets through APPLE
//     hosts, cutting TCAM usage by the path length;
//   - fast failover (§VI): hysteresis overload detection with sub-class
//     re-balancing and on-demand ClickOS instances.
//
// This file re-exports the domain types from the internal packages so
// downstream users can build problems and read results without importing
// internal paths.
package apple

import (
	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// Topology modelling.
type (
	// Topology is an undirected network of SDN switches.
	Topology = topology.Graph
	// NodeID identifies a switch.
	NodeID = topology.NodeID
	// NodeKind labels a switch's role (backbone, core, edge).
	NodeKind = topology.NodeKind
)

// NewTopology creates an empty named topology.
func NewTopology(name string) *Topology { return topology.NewGraph(name) }

// Built-in evaluation topologies from the paper (§IX-A).
var (
	Internet2Topology = topology.Internet2
	GEANTTopology     = topology.GEANT
	UNIV1Topology     = topology.UNIV1
	AS3679Topology    = topology.AS3679
)

// Node kinds.
const (
	KindBackbone = topology.KindBackbone
	KindCore     = topology.KindCore
	KindEdge     = topology.KindEdge
)

// Network functions and policies.
type (
	// NF is a network function type.
	NF = policy.NF
	// Chain is an ordered NF sequence a flow must traverse.
	Chain = policy.Chain
	// NFSpec is one row of the Table IV VNF datasheet.
	NFSpec = policy.Spec
	// Resources is a hardware demand/availability vector.
	Resources = policy.Resources
	// ChainGenerator synthesizes realistic policy chains.
	ChainGenerator = policy.Generator
)

// The four NF types of the paper's evaluation.
const (
	Firewall = policy.Firewall
	Proxy    = policy.Proxy
	NAT      = policy.NAT
	IDS      = policy.IDS
)

// Hierarchical policy machine (DESIGN.md §4).
type (
	// PolicyHierarchy is an attachment set of scoped policies compiled
	// into effective chains per class.
	PolicyHierarchy = policy.Hierarchy
	// PolicySpec is one scoped layer: a chain spec (total or partial
	// order), a merge strategy, and anti-affinity pairs.
	PolicySpec = policy.PolicySpec
	// PolicyTarget addresses one class during compilation.
	PolicyTarget = policy.Target
	// EffectivePolicy is the compiled result for one target.
	EffectivePolicy = policy.EffectivePolicy
	// ChainDAG is a partial order of NF precedence.
	ChainDAG = policy.ChainDAG
	// NFPair is a normalized anti-affinity pair (the two NFs must not
	// share an APPLE host).
	NFPair = policy.NFPair
	// MergeStrategy selects how a layer combines with the layers above.
	MergeStrategy = policy.MergeStrategy
	// PolicyScope is the attachment level of a layer.
	PolicyScope = policy.Scope
)

// Policy scopes and merge strategies.
const (
	ScopeOrg         = policy.ScopeOrg
	ScopeTenant      = policy.ScopeTenant
	ScopeClass       = policy.ScopeClass
	StrategyMerge    = policy.StrategyMerge
	StrategyOverride = policy.StrategyOverride
)

// NewPolicyHierarchy returns an empty hierarchy.
func NewPolicyHierarchy() *PolicyHierarchy { return policy.NewHierarchy() }

// NewChainDAG builds a partial order over the given NF nodes.
func NewChainDAG(nfs ...NF) (*ChainDAG, error) { return policy.NewChainDAG(nfs...) }

// NewNFPair normalizes an anti-affinity pair.
func NewNFPair(a, b NF) (NFPair, error) { return policy.NewNFPair(a, b) }

// ApplyHierarchy compiles the hierarchy for every class of a problem,
// setting effective chains, chain alternatives, and exclusions.
func ApplyHierarchy(p *Problem, h *PolicyHierarchy, tenants map[ClassID]string) error {
	return core.ApplyHierarchy(p, h, tenants)
}

// Catalogue returns the Table IV datasheet.
func Catalogue() []NFSpec { return policy.Catalogue() }

// CommonChains returns representative policy chains per the SFC use cases.
func CommonChains() []Chain { return policy.CommonChains() }

// NewChainGenerator builds a skewed deterministic chain generator.
func NewChainGenerator(seed int64, chains []Chain) (*ChainGenerator, error) {
	return policy.NewGenerator(seed, chains)
}

// Traffic.
type (
	// TrafficMatrix is an OD demand matrix in Mbps.
	TrafficMatrix = traffic.Matrix
)

// NewTrafficMatrix returns a zero n×n matrix.
func NewTrafficMatrix(n int) (*TrafficMatrix, error) { return traffic.NewMatrix(n) }

// Optimization.
type (
	// Class is an aggregated flow class: a path, a chain, and a rate.
	Class = core.Class
	// ClassID identifies a class.
	ClassID = core.ClassID
	// Problem is the Optimization Engine input.
	Problem = core.Problem
	// Placement is the engine output: instance counts and the fractional
	// spatial distribution.
	Placement = core.Placement
	// Subclass is a set of flows sharing concrete instance locations.
	Subclass = core.Subclass
	// EngineOptions tunes the optimizer.
	EngineOptions = core.EngineOptions
)

// SolveIngress runs the §IX-D strawman that consolidates each class's
// chain at its ingress switch (the Fig 11 baseline).
func SolveIngress(p *Problem) (*Placement, error) { return core.SolveIngress(p) }

// SolveGreedy runs the heuristic engine (the paper's future-work
// algorithm for gigantic networks).
func SolveGreedy(p *Problem) (*Placement, error) { return core.SolveGreedy(p) }

// Subclasses derives the §V-A sub-classes from a class's placement
// distribution.
func Subclasses(c Class, dist [][]float64) ([]Subclass, error) {
	return core.Subclasses(c, dist)
}

// Data plane.
type (
	// Header is a concrete 5-tuple packet header.
	Header = headerspace.Header
	// Trace records one packet's walk through switches, hosts, and VNF
	// instances.
	Trace = controller.Trace
)

// Well-known protocol numbers.
const (
	ProtoTCP  = headerspace.ProtoTCP
	ProtoUDP  = headerspace.ProtoUDP
	ProtoICMP = headerspace.ProtoICMP
)

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (uint32, error) { return headerspace.ParseIPv4(s) }

// FormatIPv4 renders a host-order address.
func FormatIPv4(v uint32) string { return headerspace.FormatIPv4(v) }
