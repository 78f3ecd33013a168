package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// BuildOptions tunes problem construction from a traffic matrix.
type BuildOptions struct {
	// MinRateMbps drops OD pairs below this demand (default 1).
	MinRateMbps float64
	// MaxClasses keeps only the largest classes, 0 = unlimited. The
	// paper's class aggregation (§IV-A) serves the same purpose: bounding
	// optimization input size.
	MaxClasses int
}

// UniformHosts gives every switch in the topology one APPLE host's worth
// of resources — the WAN-style deployment used for Internet2 and GEANT.
func UniformHosts(g *topology.Graph, r policy.Resources) map[topology.NodeID]policy.Resources {
	out := make(map[topology.NodeID]policy.Resources, g.NumNodes())
	for _, n := range g.Nodes() {
		out[n.ID] = r
	}
	return out
}

// EdgeHeavyHosts models the UNIV1 deployment: full hosts at edge
// switches, a limited-capacity host at each core switch (the paper: "the
// limited hardware capacity at the core switches force APPLE to place
// VNFs at the ingress switches").
func EdgeHeavyHosts(g *topology.Graph, edge, core policy.Resources) map[topology.NodeID]policy.Resources {
	out := make(map[topology.NodeID]policy.Resources, g.NumNodes())
	for _, n := range g.Nodes() {
		if n.Kind == topology.KindCore {
			out[n.ID] = core
		} else {
			out[n.ID] = edge
		}
	}
	return out
}

// BuildProblem aggregates a traffic matrix into per-OD-pair classes with
// shortest-path routes and generator-assigned policy chains, producing the
// Optimization Engine input. Flows between the same OD pair share a path
// and (per generator draw) a chain, which is exactly the class
// equivalence of §IV-A at OD granularity.
func BuildProblem(g *topology.Graph, tm *traffic.Matrix, gen *policy.Generator,
	avail map[topology.NodeID]policy.Resources, opts BuildOptions) (*Problem, error) {
	if g == nil || tm == nil || gen == nil {
		return nil, errors.New("core: nil topology, matrix, or generator")
	}
	if tm.N() != g.NumNodes() {
		return nil, fmt.Errorf("core: matrix size %d != topology size %d", tm.N(), g.NumNodes())
	}
	minRate := opts.MinRateMbps
	if minRate == 0 {
		minRate = 1
	}
	type od struct {
		src, dst int
		rate     float64
	}
	// Two passes over the N² entries: count, then fill an exact slice.
	n := 0
	for s := 0; s < tm.N(); s++ {
		for d := 0; d < tm.N(); d++ {
			if tm.At(s, d) >= minRate {
				n++
			}
		}
	}
	pairs := make([]od, 0, n)
	for s := 0; s < tm.N(); s++ {
		for d := 0; d < tm.N(); d++ {
			if r := tm.At(s, d); r >= minRate {
				pairs = append(pairs, od{src: s, dst: d, rate: r})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, errors.New("core: no OD pair meets the rate threshold")
	}
	// Deterministic: largest classes first, stable tie-break by indices.
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].rate != pairs[j].rate {
			return pairs[i].rate > pairs[j].rate
		}
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	if opts.MaxClasses > 0 && len(pairs) > opts.MaxClasses {
		pairs = pairs[:opts.MaxClasses]
	}
	prob := &Problem{Topo: g, Avail: avail, Classes: make([]Class, 0, len(pairs))}
	// One shortest-path tree per source, built when a class first needs it.
	trees := make([]topology.Paths, g.NumNodes())
	routed := make([]bool, g.NumNodes())
	for i, p := range pairs {
		if !routed[p.src] {
			tree, err := g.PathsFrom(topology.NodeID(p.src))
			if err != nil {
				return nil, fmt.Errorf("core: routing class %d: %w", i, err)
			}
			trees[p.src], routed[p.src] = tree, true
		}
		path, err := trees[p.src].To(topology.NodeID(p.dst))
		if err != nil {
			return nil, fmt.Errorf("core: routing class %d: %w", i, err)
		}
		prob.Classes = append(prob.Classes, Class{
			ID:       ClassID(i),
			Path:     path,
			Chain:    gen.Next(),
			RateMbps: p.rate,
		})
	}
	return prob, nil
}
