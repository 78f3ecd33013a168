package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// GreedyDist packs one class's chain onto its eligible hops (the path
// indices of its APPLE hosts, in path order) and returns its distribution
// d[hop][position]. Each position is offered to the hops in turn:
// absorb(i, nf, take) returns how much of take hop i processes for nf,
// where take is the Eq. (3) budget — what is left of the class, capped by
// how far σ_{j-1}(i) runs ahead of σ_j so far. The capacity behind absorb
// is the caller's: SolveGreedy's offline state, or the controller's live
// headroom. Both refusals — no host on the path, no headroom for a
// position — are built here.
func GreedyDist(c Class, hops []int, absorb func(i int, nf policy.NF, take float64) float64) ([][]float64, error) {
	if len(hops) == 0 {
		return nil, fmt.Errorf("core: class %d has no APPLE host on its path", c.ID)
	}
	d := make([][]float64, len(c.Path))
	for i := range d {
		d[i] = make([]float64, len(c.Chain))
	}
	// cumPrev[i] = σ_{j-1} up to hop i; for j=0 there is no dominance
	// bound (treat as 1 everywhere).
	cumPrev := make([]float64, len(c.Path))
	for i := range cumPrev {
		cumPrev[i] = 1
	}
	for j, nf := range c.Chain {
		remaining := 1.0 // fraction of the class still unassigned
		cum := 0.0
		for _, i := range hops {
			if remaining <= 1e-12 {
				break
			}
			// Dominance budget: σ_j(i) may not exceed σ_{j-1}(i).
			budget := cumPrev[i] - cum
			if budget <= 1e-12 {
				continue
			}
			frac := absorb(i, nf, math.Min(remaining, budget))
			if frac <= 1e-12 {
				continue
			}
			d[i][j] += frac
			cum += frac
			remaining -= frac
		}
		if remaining > 1e-9 {
			return nil, fmt.Errorf("core: class %d position %d (%v): %.4f of the class cannot be placed (no headroom on the path)",
				c.ID, j, nf, remaining)
		}
		// Exact cleanup: make the position sum exactly 1.
		total := 0.0
		for i := range c.Path {
			total += d[i][j]
		}
		acc := 0.0
		for i := range c.Path {
			d[i][j] /= total
			acc += d[i][j]
			cumPrev[i] = acc
		}
	}
	return d, nil
}

// SolveGreedy is the heuristic engine the paper leaves to future work
// ("For gigantic networks including hundreds of switches... we plan to
// propose heuristic algorithms", §IV-D). It processes classes in
// descending rate order and packs each with GreedyDist, granting load
// from existing instances along the path before opening new ones.
//
// It runs in O(|H|·|P|·|C|) — no LP — and produces feasible but generally
// more instances than the LP engine; the gap is quantified by
// BenchmarkAblation_Greedy.
func SolveGreedy(prob *Problem) (*Placement, error) {
	start := time.Now()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if len(prob.AntiAffinity) > 0 {
		return nil, fmt.Errorf("core: greedy engine does not support anti-affinity constraints (use the LP engine)")
	}
	// Mutable capacity state.
	counts := make(map[topology.NodeID]map[policy.NF]int)
	slack := make(map[qKey]float64) // unused capacity on open instances
	avail := make(map[topology.NodeID]policy.Resources, len(prob.Avail))
	for v, r := range prob.Avail {
		avail[v] = r
	}
	addInstance := func(v topology.NodeID, nf policy.NF) bool {
		spec, err := policy.SpecOf(nf)
		if err != nil {
			return false
		}
		if !spec.Resources().Fits(avail[v]) {
			return false
		}
		avail[v] = avail[v].Sub(spec.Resources())
		if counts[v] == nil {
			counts[v] = make(map[policy.NF]int)
		}
		counts[v][nf]++
		slack[qKey{v: v, nf: nf}] += spec.CapacityMbps
		return true
	}

	order := make([]int, len(prob.Classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return prob.Classes[order[a]].RateMbps > prob.Classes[order[b]].RateMbps
	})

	dist := make(map[ClassID][][]float64, len(prob.Classes))
	for _, ci := range order {
		c := prob.Classes[ci]
		d, err := GreedyDist(c, prob.eligibleHops(c), func(i int, nf policy.NF, take float64) float64 {
			v := c.Path[i]
			key := qKey{v: v, nf: nf}
			// Rate this hop can absorb: existing slack plus however many
			// new instances fit.
			for slack[key] < take*c.RateMbps-1e-9 {
				if !addInstance(v, nf) {
					break
				}
			}
			var frac float64
			if c.RateMbps <= 1e-12 {
				// Zero-rate classes still need coverage for policy
				// enforcement; any host hop can take it all, but at least
				// one instance must exist.
				if slack[key] <= 0 && counts[v][nf] == 0 {
					if !addInstance(v, nf) {
						return 0
					}
				}
				frac = take
			} else {
				frac = math.Min(take, slack[key]/c.RateMbps)
			}
			if frac <= 1e-12 {
				return 0
			}
			slack[key] -= frac * c.RateMbps
			return frac
		})
		if err != nil {
			return nil, err
		}
		dist[c.ID] = d
	}
	pl := &Placement{
		Counts:    counts,
		Dist:      dist,
		SolveTime: time.Since(start),
		Method:    "greedy",
	}
	pl.Objective = pl.TotalInstances()
	return pl, nil
}

// SolveIngress is the strawman baseline of §IX-D: for every class, all
// VNFs of its policy chain are consolidated at the class's ingress switch
// (its first hop able to host instances), with dedicated instances per
// class — no multiplexing across classes. This is what APPLE's Fig 11
// comparison beats by ≈4× (Internet2) and ≈2.5× (GEANT).
//
// The baseline deliberately ignores per-switch resource limits (a real
// deployment would simply be infeasible); Placement.Verify will report
// the violation where one exists.
func SolveIngress(prob *Problem) (*Placement, error) {
	start := time.Now()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	counts := make(map[topology.NodeID]map[policy.NF]int)
	dist := make(map[ClassID][][]float64, len(prob.Classes))
	for _, c := range prob.Classes {
		hops := prob.eligibleHops(c)
		if len(hops) == 0 {
			return nil, fmt.Errorf("core: class %d has no APPLE host on its path", c.ID)
		}
		ingress := hops[0]
		v := c.Path[ingress]
		d := make([][]float64, len(c.Path))
		for i := range d {
			d[i] = make([]float64, len(c.Chain))
		}
		for j, nf := range c.Chain {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			need := int(math.Ceil(c.RateMbps / spec.CapacityMbps))
			if need == 0 {
				need = 1 // policy enforcement needs an instance even at zero rate
			}
			if counts[v] == nil {
				counts[v] = make(map[policy.NF]int)
			}
			counts[v][nf] += need
			d[ingress][j] = 1
		}
		dist[c.ID] = d
	}
	pl := &Placement{
		Counts:    counts,
		Dist:      dist,
		SolveTime: time.Since(start),
		Method:    "ingress",
	}
	pl.Objective = pl.TotalInstances()
	return pl, nil
}
