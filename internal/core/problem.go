// Package core implements the paper's primary contribution: APPLE's
// Optimization Engine (§IV). It formulates VNF placement as the integer
// program of Eqs. (1)–(8) — minimize total VNF instances subject to
// policy-chain order (3), full processing (4), instance capacity (5), and
// per-host resources (6) — solves the LP relaxation with the internal
// simplex solver, rounds, and repairs. The package also provides the
// greedy heuristic engine the paper defers to future work, the `ingress`
// strawman baseline of §IX-D, and the sub-class derivation of §V-A that
// converts fractional spatial distributions d into concrete per-flow
// instance assignments.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// ClassID identifies a traffic equivalence class (h ∈ H).
type ClassID int

// Class is one aggregated flow class: all flows sharing a forwarding path
// and a policy chain (§IV-A).
type Class struct {
	ID ClassID
	// Path is P_h: the switches the class traverses, in order.
	Path []topology.NodeID
	// Chain is C_h: the NF sequence the class must traverse, in order.
	Chain policy.Chain
	// AltChains lists alternative linearizations of the class's
	// partial-order policy (policy.EffectivePolicy.Alternatives minus the
	// canonical Chain). The engine may pick any of them; empty means the
	// chain is fixed.
	AltChains []policy.Chain
	// RateMbps is T_h.
	RateMbps float64
}

// Validate checks the class against a topology.
func (c Class) Validate(g *topology.Graph) error {
	if len(c.Path) == 0 {
		return fmt.Errorf("core: class %d has empty path", c.ID)
	}
	if err := c.Chain.Validate(); err != nil {
		return fmt.Errorf("core: class %d: %w", c.ID, err)
	}
	if c.RateMbps < 0 || math.IsNaN(c.RateMbps) || math.IsInf(c.RateMbps, 0) {
		return fmt.Errorf("core: class %d has bad rate %v", c.ID, c.RateMbps)
	}
	for k, alt := range c.AltChains {
		if err := alt.Validate(); err != nil {
			return fmt.Errorf("core: class %d alternative chain %d: %w", c.ID, k, err)
		}
		if !sameNFSet(c.Chain, alt) {
			return fmt.Errorf("core: class %d alternative chain %d (%v) is not a permutation of %v", c.ID, k, alt, c.Chain)
		}
	}
	seen := make(map[topology.NodeID]bool, len(c.Path))
	for i, v := range c.Path {
		if g != nil {
			if _, err := g.Node(v); err != nil {
				return fmt.Errorf("core: class %d hop %d: %w", c.ID, i, err)
			}
		}
		if seen[v] {
			return fmt.Errorf("core: class %d path visits switch %d twice", c.ID, v)
		}
		seen[v] = true
	}
	if g != nil {
		if _, err := g.PathWeight(c.Path); err != nil {
			return fmt.Errorf("core: class %d path is not connected in the topology: %w", c.ID, err)
		}
	}
	return nil
}

// sameNFSet reports whether two chains visit the same NF type set.
// Validated chains never repeat a type, so set equality is permutation
// equality.
func sameNFSet(a, b policy.Chain) bool {
	if len(a) != len(b) {
		return false
	}
	for _, nf := range a {
		if !b.Contains(nf) {
			return false
		}
	}
	return true
}

// HopIndex is i(P,h,v): the index of switch v on the class path, or -1.
func (c Class) HopIndex(v topology.NodeID) int {
	for i, p := range c.Path {
		if p == v {
			return i
		}
	}
	return -1
}

// Problem is the Optimization Engine input (§IV-C): classes with paths,
// chains and rates, plus the per-switch available resources A_v polled
// from the Resource Orchestrator.
type Problem struct {
	Topo    *topology.Graph
	Classes []Class
	// Avail maps each switch with attached APPLE hosts to its free
	// resources. Switches absent from the map host nothing.
	Avail map[topology.NodeID]policy.Resources
	// AntiAffinity lists NF type pairs that must not be co-located on one
	// switch's host — the placement exclusions compiled from the policy
	// hierarchy. Empty means the classic unconstrained problem.
	AntiAffinity []policy.NFPair
}

// Validate checks the whole problem.
func (p *Problem) Validate() error {
	if p == nil {
		return errors.New("core: nil problem")
	}
	if len(p.Classes) == 0 {
		return errors.New("core: no classes")
	}
	ids := make(map[ClassID]bool, len(p.Classes))
	for _, c := range p.Classes {
		if ids[c.ID] {
			return fmt.Errorf("core: duplicate class ID %d", c.ID)
		}
		ids[c.ID] = true
		if err := c.Validate(p.Topo); err != nil {
			return err
		}
	}
	for v, r := range p.Avail {
		if !r.NonNegative() {
			return fmt.Errorf("core: negative resources %v at switch %d", r, v)
		}
	}
	for _, pr := range p.AntiAffinity {
		if _, err := policy.NewNFPair(pr.A, pr.B); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if pr.A > pr.B {
			return fmt.Errorf("core: anti-affinity pair %v not normalized (want A < B)", pr)
		}
	}
	return nil
}

// hostSwitch reports whether v can host instances.
func (p *Problem) hostSwitch(v topology.NodeID) bool {
	r, ok := p.Avail[v]
	return ok && r.Cores > 0
}

// eligibleHops returns the path indices of class c whose switch can host
// instances.
func (p *Problem) eligibleHops(c Class) []int { return p.appendEligibleHops(nil, c) }

// appendEligibleHops appends class c's eligible hops to dst.
func (p *Problem) appendEligibleHops(dst []int, c Class) []int {
	for i, v := range c.Path {
		if p.hostSwitch(v) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Placement is the engine output: q (instance counts per switch and NF)
// and d (the spatial distribution of each class's processing).
type Placement struct {
	// Counts is q_n^v.
	Counts map[topology.NodeID]map[policy.NF]int
	// Dist is d_{h,j}^i indexed as Dist[classID][hopIndex][chainIndex].
	Dist map[ClassID][][]float64
	// Chains records, per class, the chain variant the engine selected
	// when the class carried partial-order alternatives. Classes absent
	// from the map use their canonical Class.Chain; Dist's chainIndex axis
	// always follows the selected chain.
	Chains map[ClassID]policy.Chain
	// Objective is Σ q — the minimized instance total (Eq. 1).
	Objective int
	// SolveTime is the wall-clock optimization time (Table V's metric).
	SolveTime time.Duration
	// Iterations counts simplex pivots (0 for non-LP methods).
	Iterations int
	// Method names the engine that produced the placement.
	Method string
}

// ChainFor returns the chain the placement actually uses for class c: the
// selected variant if one was recorded, the canonical chain otherwise.
func (p *Placement) ChainFor(c Class) policy.Chain {
	if ch, ok := p.Chains[c.ID]; ok {
		return ch
	}
	return c.Chain
}

// AdoptChains rewrites each class's canonical Chain to the variant the
// placement selected (clearing AltChains), so downstream consumers that
// read Class.Chain — the controller's rule generation, Subclasses — see
// the chain the distribution was solved for. Classes without a recorded
// variant are untouched. The problem is modified in place.
func AdoptChains(prob *Problem, pl *Placement) {
	if len(pl.Chains) == 0 {
		return
	}
	for i := range prob.Classes {
		if ch, ok := pl.Chains[prob.Classes[i].ID]; ok {
			prob.Classes[i].Chain = ch.Clone()
			prob.Classes[i].AltChains = nil
		}
	}
}

// TotalInstances recomputes Σ q from Counts.
func (p *Placement) TotalInstances() int {
	n := 0
	for _, m := range p.Counts {
		for _, q := range m {
			n += q
		}
	}
	return n
}

// TotalResources returns the hardware consumed by all placed instances —
// the Fig 11 metric.
func (p *Placement) TotalResources() (policy.Resources, error) {
	var total policy.Resources
	for _, m := range p.Counts {
		for nf, q := range m {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				return policy.Resources{}, fmt.Errorf("core: %w", err)
			}
			for k := 0; k < q; k++ {
				total = total.Add(spec.Resources())
			}
		}
	}
	return total, nil
}

// Switches returns the switches holding at least one instance, sorted.
func (p *Placement) Switches() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(p.Counts))
	for v, m := range p.Counts {
		total := 0
		for _, q := range m {
			total += q
		}
		if total > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// distTolerance is the numerical slack used when verifying fractional
// distributions.
const distTolerance = 1e-6

// Verify checks that the placement satisfies every constraint of the
// optimization problem (Eqs. 3–8) for the given problem instance. The
// ingress baseline may legitimately fail the resource check; everything
// else must pass.
func (p *Placement) Verify(prob *Problem) error {
	if err := prob.Validate(); err != nil {
		return err
	}
	load := make(map[topology.NodeID]map[policy.NF]float64)
	for _, c := range prob.Classes {
		chain := p.ChainFor(c)
		if !chain.Equal(c.Chain) {
			legit := false
			for _, alt := range c.AltChains {
				if chain.Equal(alt) {
					legit = true
					break
				}
			}
			if !legit {
				return fmt.Errorf("core: class %d: selected chain %v is neither the canonical chain nor a declared alternative", c.ID, chain)
			}
		}
		dist, ok := p.Dist[c.ID]
		if !ok {
			return fmt.Errorf("core: class %d missing from distribution", c.ID)
		}
		if len(dist) != len(c.Path) {
			return fmt.Errorf("core: class %d distribution has %d hops, path has %d",
				c.ID, len(dist), len(c.Path))
		}
		cumPrev := make([]float64, len(c.Path)) // cumulative for position j-1
		for j := range chain {
			total := 0.0
			cum := 0.0
			for i := range c.Path {
				if len(dist[i]) != len(chain) {
					return fmt.Errorf("core: class %d hop %d has %d chain entries, want %d",
						c.ID, i, len(dist[i]), len(chain))
				}
				d := dist[i][j]
				if d < -distTolerance || d > 1+distTolerance {
					return fmt.Errorf("core: class %d d[%d][%d] = %v out of [0,1] (Eq. 8)", c.ID, i, j, d)
				}
				total += d
				cum += d
				if j > 0 && cumPrev[i] < cum-distTolerance {
					return fmt.Errorf("core: class %d: chain order violated at hop %d, position %d: σ_{j-1}=%v < σ_j=%v (Eq. 3)",
						c.ID, i, j, cumPrev[i], cum)
				}
				v := c.Path[i]
				if d > distTolerance {
					if load[v] == nil {
						load[v] = make(map[policy.NF]float64)
					}
					load[v][chain[j]] += c.RateMbps * d
				}
			}
			if math.Abs(total-1) > 1e-4 {
				return fmt.Errorf("core: class %d position %d processes %v of traffic, want 1 (Eq. 4)",
					c.ID, j, total)
			}
			// Refresh cumulative-previous for the next position.
			acc := 0.0
			for i := range c.Path {
				acc += dist[i][j]
				cumPrev[i] = acc
			}
		}
	}
	// Capacity (Eq. 5).
	for v, m := range load {
		for nf, l := range m {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			q := p.Counts[v][nf]
			if l > spec.CapacityMbps*float64(q)+1e-3 {
				return fmt.Errorf("core: switch %d %v load %v exceeds %d×%v capacity (Eq. 5)",
					v, nf, l, q, spec.CapacityMbps)
			}
		}
	}
	// Resources (Eq. 6).
	for v, m := range p.Counts {
		var used policy.Resources
		for nf, q := range m {
			if q < 0 {
				return fmt.Errorf("core: negative instance count at switch %d (Eq. 7)", v)
			}
			spec, err := policy.SpecOf(nf)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			for k := 0; k < q; k++ {
				used = used.Add(spec.Resources())
			}
		}
		avail, ok := prob.Avail[v]
		if !ok && (used.Cores > 0 || used.MemoryMB > 0) {
			return fmt.Errorf("core: instances at switch %d which has no APPLE host (Eq. 6)", v)
		}
		if ok && !used.Fits(avail) {
			return fmt.Errorf("core: switch %d uses %v of %v available (Eq. 6)", v, used, avail)
		}
	}
	// Anti-affinity: no excluded pair co-located on one switch's host.
	for v, m := range p.Counts {
		for _, pr := range prob.AntiAffinity {
			if m[pr.A] > 0 && m[pr.B] > 0 {
				return fmt.Errorf("core: switch %d co-locates anti-affine pair %v (%d and %d instances)",
					v, pr, m[pr.A], m[pr.B])
			}
		}
	}
	return nil
}
