package metrics

import (
	"fmt"
	"math"
	"sort"
)

// The tests' oracles: Percentile is the one-quantile-per-call reference
// NewBoxplot's single sort is checked against, and At is the CDF that
// Quantile must be a right-inverse of. Production reads only quantiles.

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It returns
// ErrEmpty for an empty sample and ErrNaN for one containing NaN.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if err := checkNaN(xs); err != nil {
		return 0, err
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of [0,100]", p)
	}
	return percentileSorted(sortedCopy(xs), p), nil
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	// Index of first element > x.
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
}
