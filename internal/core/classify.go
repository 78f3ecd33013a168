package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// PolicyRule binds a header-space predicate to the policy chain its
// matching traffic must traverse — the form in which operators express NF
// policies ("all http traffic follows firewall → IDS → web proxy", §I).
// Rules are ordered; the first rule covering a flow class decides its
// chain, ACL-style.
type PolicyRule struct {
	Name      string
	Predicate headerspace.Predicate
	Chain     policy.Chain
}

// ClassifyOptions tunes BuildProblemFromPolicies.
type ClassifyOptions struct {
	// MinRateMbps drops classes below this demand (default 1).
	MinRateMbps float64
	// MaxClasses caps the class count, keeping the largest (0 = all).
	MaxClasses int
}

// BuildProblemFromPolicies constructs the Optimization Engine input the
// way §IV-A describes: flows are aggregated into equivalence classes via
// atomic predicates, so two flows share a class exactly when they share a
// forwarding path (OD pair) *and* no policy rule distinguishes them. The
// per-OD-pair traffic is split across the atoms that intersect it, in
// proportion to each atom's share of the pair's header space.
//
// Each OD pair (i, j) owns the header block srcIP ∈ 10.i.0.0/16,
// dstIP ∈ 172.16.j.0/24 in the synthetic address plan. Atoms that match
// no rule need no NF processing and produce no class.
func BuildProblemFromPolicies(g *topology.Graph, tm *traffic.Matrix, sp *headerspace.Space,
	rules []PolicyRule, avail map[topology.NodeID]policy.Resources, opts ClassifyOptions) (*Problem, error) {
	if g == nil || tm == nil || sp == nil {
		return nil, errors.New("core: nil topology, matrix, or space")
	}
	if tm.N() != g.NumNodes() {
		return nil, fmt.Errorf("core: matrix size %d != topology size %d", tm.N(), g.NumNodes())
	}
	if len(rules) == 0 {
		return nil, errors.New("core: no policy rules")
	}
	if g.NumNodes() > 250 {
		return nil, fmt.Errorf("core: the synthetic address plan covers 250 switches, topology has %d", g.NumNodes())
	}
	minRate := opts.MinRateMbps
	if minRate == 0 {
		minRate = 1
	}
	preds := make([]headerspace.Predicate, len(rules))
	for i, r := range rules {
		if err := r.Chain.Validate(); err != nil {
			return nil, fmt.Errorf("core: rule %q: %w", r.Name, err)
		}
		preds[i] = r.Predicate
	}
	cls, err := headerspace.NewClassifier(sp, preds)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// chainOf[i] is the chain of atom i (nil when no rule covers it).
	chains := make([]policy.Chain, cls.NumClasses())
	for i := 0; i < cls.NumClasses(); i++ {
		members, err := cls.Membership(i)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if len(members) > 0 {
			chains[i] = rules[members[0]].Chain // first match wins
		}
	}
	prob := &Problem{Topo: g, Avail: avail}
	nextID := ClassID(0)
	for i := 0; i < g.NumNodes(); i++ {
		var tree topology.Paths // i's shortest-path tree, built when a pair first needs it
		routed := false
		for j := 0; j < g.NumNodes(); j++ {
			rate := tm.At(i, j)
			if rate < minRate {
				continue
			}
			pairPred, err := odPredicate(sp, i, j)
			if err != nil {
				return nil, err
			}
			pairFrac := pairPred.Fraction()
			if pairFrac == 0 {
				continue
			}
			if !routed {
				if tree, err = g.PathsFrom(topology.NodeID(i)); err != nil {
					return nil, fmt.Errorf("core: routing pair (%d,%d): %w", i, j, err)
				}
				routed = true
			}
			path, err := tree.To(topology.NodeID(j))
			if err != nil {
				return nil, fmt.Errorf("core: routing pair (%d,%d): %w", i, j, err)
			}
			// Only the atoms the pair's block meets, in class order.
			overlaps, err := cls.Overlapping(pairPred)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			for _, o := range overlaps {
				if chains[o.Class] == nil {
					continue // matches no policy: nothing to enforce
				}
				share := rate * o.Pred.Fraction() / pairFrac
				if share < minRate {
					continue
				}
				prob.Classes = append(prob.Classes, Class{
					ID:       nextID,
					Path:     path,
					Chain:    chains[o.Class].Clone(),
					RateMbps: share,
				})
				nextID++
			}
		}
	}
	if len(prob.Classes) == 0 {
		return nil, errors.New("core: no traffic matches any policy rule")
	}
	if opts.MaxClasses > 0 && len(prob.Classes) > opts.MaxClasses {
		// Keep the largest classes; renumber to stay dense.
		sortClassesByRate(prob.Classes)
		prob.Classes = prob.Classes[:opts.MaxClasses]
		for k := range prob.Classes {
			prob.Classes[k].ID = ClassID(k)
		}
	}
	return prob, nil
}

// ODSourcePrefix returns OD pair source block 10.i.0.0/16 as (addr, plen).
func ODSourcePrefix(i int) (uint32, int) {
	return 10<<24 | uint32(i)<<16, 16
}

// ODDestPrefix returns OD pair destination block 172.16.j.0/24.
func ODDestPrefix(j int) (uint32, int) {
	return 172<<24 | 16<<16 | uint32(j)<<8, 24
}

// odPredicate builds the header predicate of an OD pair.
func odPredicate(sp *headerspace.Space, i, j int) (headerspace.Predicate, error) {
	srcAddr, srcLen := ODSourcePrefix(i)
	src, err := sp.Prefix(headerspace.FieldSrcIP, srcAddr, srcLen)
	if err != nil {
		return headerspace.Predicate{}, fmt.Errorf("core: %w", err)
	}
	dstAddr, dstLen := ODDestPrefix(j)
	dst, err := sp.Prefix(headerspace.FieldDstIP, dstAddr, dstLen)
	if err != nil {
		return headerspace.Predicate{}, fmt.Errorf("core: %w", err)
	}
	return src.And(dst), nil
}

// sortClassesByRate sorts classes descending by rate; classes of equal
// rate keep their order.
func sortClassesByRate(cs []Class) {
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].RateMbps > cs[b].RateMbps })
}
