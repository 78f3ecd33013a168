package core

import (
	"fmt"
	"math"
	"slices"
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
// concrete sub-classes (see Coupling.Split). The result and its hop
// vectors are freshly allocated and belong to the caller.
func Subclasses(c Class, dist [][]float64) ([]Subclass, error) {
	var b Coupling
	return b.Split(c, dist)
}

// Coupling is caller-owned scratch for the comonotone coupling. A
// Coupling reused from class to class splits each one without allocating
// once its buffers have grown to the largest class seen; a zero Coupling
// allocates each of its four buffers once, sized for the class.
type Coupling struct {
	cum    []float64 // σ_j at hop i, at cum[j*len(path)+i]
	breaks []float64
	subs   []Subclass
	hops   []int // every sub-class's hop vector, back to back
}

// Split converts a class's fractional spatial distribution d into
// concrete sub-classes using the comonotone coupling: flows are indexed by
// a quantile u ∈ [0,1) (by hash or by address split, §V-A), and the flow
// at quantile u is processed for position j at the first hop where the
// cumulative distribution σ_j exceeds u. Constraint (3) — σ_{j-1} ≥ σ_j
// everywhere — guarantees the resulting hop sequences are non-decreasing,
// i.e. every sub-class is enforceable in path order. Adjacent quantile
// intervals with identical hop vectors are merged.
//
// The sub-classes and their hop vectors live in b's buffers: they are
// valid until the next Split on b, and callers that keep them must split
// with a Coupling they never reuse (as Subclasses does).
func (b *Coupling) Split(c Class, dist [][]float64) ([]Subclass, error) {
	if len(dist) != len(c.Path) {
		return nil, fmt.Errorf("core: class %d distribution has %d hops, path has %d",
			c.ID, len(dist), len(c.Path))
	}
	nPos, nHop := len(c.Chain), len(c.Path)
	// Cumulative σ_j per hop, and the breakpoint set.
	b.cum = slices.Grow(b.cum[:0], nPos*nHop)[:nPos*nHop]
	b.breaks = append(slices.Grow(b.breaks[:0], nPos*nHop+2), 0, 1)
	for j := 0; j < nPos; j++ {
		cum := b.cum[j*nHop : (j+1)*nHop]
		acc := 0.0
		for i := range dist {
			if len(dist[i]) != nPos {
				return nil, fmt.Errorf("core: class %d hop %d has %d positions, want %d",
					c.ID, i, len(dist[i]), nPos)
			}
			d := dist[i][j]
			if d < -subclassTolerance || d > 1+subclassTolerance {
				return nil, fmt.Errorf("core: class %d d[%d][%d]=%v out of [0,1]", c.ID, i, j, d)
			}
			acc += d
			cum[i] = acc
			if acc > subclassTolerance && acc < 1-subclassTolerance {
				b.breaks = append(b.breaks, acc)
			}
		}
		if math.Abs(acc-1) > 1e-4 {
			return nil, fmt.Errorf("core: class %d position %d sums to %v, want 1", c.ID, j, acc)
		}
	}
	slices.Sort(b.breaks)
	// Deduplicate.
	uniq := b.breaks[:1]
	for _, x := range b.breaks[1:] {
		if x-uniq[len(uniq)-1] > subclassTolerance {
			uniq = append(uniq, x)
		}
	}
	// One sub-class per quantile interval at most; each interval's hop
	// vector is written behind the last kept one and kept only if it
	// differs from it.
	n := len(uniq) - 1
	b.subs = slices.Grow(b.subs[:0], n)
	b.hops = slices.Grow(b.hops[:0], n*nPos)[:n*nPos]
	for k := 0; k < n; k++ {
		lo, hi := uniq[k], uniq[k+1]
		mid := (lo + hi) / 2
		at := len(b.subs) * nPos
		hops := b.hops[at : at+nPos : at+nPos]
		for j := range hops {
			h := firstAbove(b.cum[j*nHop:(j+1)*nHop], mid)
			if h < 0 {
				return nil, fmt.Errorf("core: class %d: quantile %v uncovered at position %d", c.ID, mid, j)
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
		if last := len(b.subs) - 1; last >= 0 && slices.Equal(b.subs[last].Hops, hops) {
			b.subs[last].Portion += hi - lo
			continue
		}
		b.subs = append(b.subs, Subclass{Portion: hi - lo, Hops: hops})
	}
	return b.subs, nil
}

// firstAbove returns the first hop where the cumulative distribution σ
// exceeds quantile u, or -1 if none does.
func firstAbove(sigma []float64, u float64) int {
	for i, s := range sigma {
		if s > u+subclassTolerance {
			return i
		}
	}
	return -1
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
