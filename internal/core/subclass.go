package core

import (
	"fmt"
	"math"
	"sort"
)

// Subclass is the §V-A concept: the flows of a class that traverse the
// same VNF instance locations. Portion is d_c^s; Hops[j] is the path index
// whose switch processes chain position j for these flows. Hops is
// non-decreasing, which is exactly what makes the assignment enforce the
// policy chain along the forwarding path.
type Subclass struct {
	Portion float64
	Hops    []int
}

// subclassTolerance collapses numerically-identical breakpoints.
const subclassTolerance = 1e-9

// Subclasses converts a class's fractional spatial distribution d into
// concrete sub-classes using the comonotone coupling: flows are indexed by
// a quantile u ∈ [0,1) (by hash or by address split, §V-A), and the flow
// at quantile u is processed for position j at the first hop where the
// cumulative distribution σ_j exceeds u. Constraint (3) — σ_{j-1} ≥ σ_j
// everywhere — guarantees the resulting hop sequences are non-decreasing,
// i.e. every sub-class is enforceable in path order.
func Subclasses(c Class, dist [][]float64) ([]Subclass, error) {
	if len(dist) != len(c.Path) {
		return nil, fmt.Errorf("core: class %d distribution has %d hops, path has %d",
			c.ID, len(dist), len(c.Path))
	}
	nPos := len(c.Chain)
	// Cumulative σ_j per hop, and the breakpoint set.
	cum := make([][]float64, nPos)
	breaks := []float64{0, 1}
	for j := 0; j < nPos; j++ {
		cum[j] = make([]float64, len(c.Path))
		acc := 0.0
		for i := range c.Path {
			if len(dist[i]) != nPos {
				return nil, fmt.Errorf("core: class %d hop %d has %d positions, want %d",
					c.ID, i, len(dist[i]), nPos)
			}
			d := dist[i][j]
			if d < -subclassTolerance || d > 1+subclassTolerance {
				return nil, fmt.Errorf("core: class %d d[%d][%d]=%v out of [0,1]", c.ID, i, j, d)
			}
			acc += d
			cum[j][i] = acc
			if acc > subclassTolerance && acc < 1-subclassTolerance {
				breaks = append(breaks, acc)
			}
		}
		if math.Abs(acc-1) > 1e-4 {
			return nil, fmt.Errorf("core: class %d position %d sums to %v, want 1", c.ID, j, acc)
		}
	}
	sort.Float64s(breaks)
	// Deduplicate.
	uniq := breaks[:1]
	for _, b := range breaks[1:] {
		if b-uniq[len(uniq)-1] > subclassTolerance {
			uniq = append(uniq, b)
		}
	}
	// hopAt returns the first hop where σ_j exceeds u.
	hopAt := func(j int, u float64) (int, error) {
		for i := range cum[j] {
			if cum[j][i] > u+subclassTolerance {
				return i, nil
			}
		}
		return 0, fmt.Errorf("core: class %d: quantile %v uncovered at position %d", c.ID, u, j)
	}
	var out []Subclass
	for k := 0; k+1 < len(uniq); k++ {
		lo, hi := uniq[k], uniq[k+1]
		mid := (lo + hi) / 2
		hops := make([]int, nPos)
		for j := 0; j < nPos; j++ {
			h, err := hopAt(j, mid)
			if err != nil {
				return nil, err
			}
			hops[j] = h
		}
		// Enforceability: non-decreasing hops (guaranteed by Eq. 3, but
		// verified here so corrupt inputs surface loudly).
		for j := 1; j < nPos; j++ {
			if hops[j] < hops[j-1] {
				return nil, fmt.Errorf("core: class %d sub-class [%v,%v): hop order %v violates the chain (input violates Eq. 3)",
					c.ID, lo, hi, hops)
			}
		}
		out = append(out, Subclass{Portion: hi - lo, Hops: hops})
	}
	// Merge adjacent sub-classes with identical hop vectors.
	merged := out[:0]
	for _, s := range out {
		if len(merged) > 0 && equalInts(merged[len(merged)-1].Hops, s.Hops) {
			merged[len(merged)-1].Portion += s.Portion
			continue
		}
		merged = append(merged, s)
	}
	return merged, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SubclassPortions extracts just the portion vector (input to
// flowtable.SplitPortions, the address split of §V-A method 2).
func SubclassPortions(subs []Subclass) []float64 {
	out := make([]float64, len(subs))
	for i, s := range subs {
		out[i] = s.Portion
	}
	return out
}
