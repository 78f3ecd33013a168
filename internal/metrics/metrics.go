// Package metrics provides the small statistical toolkit the experiment
// harnesses use to report results: empirical CDFs (Fig 8), boxplot
// five-number summaries (Fig 10), time series (Figs 7, 9, 12), and scalar
// summaries (Table V, Fig 11).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("metrics: empty sample")

// ErrNaN is returned by summaries of samples containing NaN.
// sort.Float64s leaves NaNs in unspecified positions, so rank-based
// statistics over a NaN-bearing sample would be silent garbage; every
// entry point rejects NaN up front instead.
var ErrNaN = errors.New("metrics: sample contains NaN")

// checkNaN returns ErrNaN if xs contains a NaN.
func checkNaN(xs []float64) error {
	for _, x := range xs {
		if math.IsNaN(x) {
			return ErrNaN
		}
	}
	return nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// percentileSorted computes the p-th percentile of an already sorted,
// NaN-free, non-empty sample by linear interpolation between closest
// ranks. It is the shared kernel of Summarize, NewBoxplot and the tests'
// Percentile oracle, letting each sort at most once.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds scalar statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample and ErrNaN for one containing NaN.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	if err := checkNaN(xs); err != nil {
		return Summary{}, err
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = percentileSorted(sortedCopy(xs), 50)
	return s, nil
}

// Boxplot is the five-number summary used in Fig 10, plus the mean.
type Boxplot struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// NewBoxplot computes the five-number summary of xs. The sample is
// copied and sorted exactly once; all five quantiles are read from the
// same sorted copy (BenchmarkNewBoxplot vs BenchmarkBoxplotFiveSorts
// measures the win over the old one-Percentile-call-per-quantile shape).
// It returns ErrEmpty for an empty sample and ErrNaN for one containing
// NaN.
func NewBoxplot(xs []float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmpty
	}
	if err := checkNaN(xs); err != nil {
		return Boxplot{}, err
	}
	sorted := sortedCopy(xs)
	b := Boxplot{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	b.Mean = sum / float64(len(xs))
	return b, nil
}

// String renders the boxplot as one line suitable for experiment logs.
func (b Boxplot) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds the empirical CDF of xs. It returns ErrEmpty for an
// empty sample and ErrNaN for one containing NaN (a NaN would corrupt
// the sorted order every lookup binary-searches).
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if err := checkNaN(xs); err != nil {
		return nil, err
	}
	return &CDF{xs: sortedCopy(xs)}, nil
}

// Quantile returns the smallest sample value v with P(X ≤ v) ≥ q, for
// q in (0, 1].
func (c *CDF) Quantile(q float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of (0,1]", q)
	}
	i := int(math.Ceil(q*float64(len(c.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return c.xs[i], nil
}

// TimeSeries is an append-only series of (time, value) points with
// non-decreasing times, used for loss-over-time and throughput plots. The
// zero value is an empty series.
type TimeSeries struct {
	ts []float64
	vs []float64
}

// Add appends a point. Times must be non-decreasing.
func (s *TimeSeries) Add(t, v float64) error {
	if n := len(s.ts); n > 0 && t < s.ts[n-1] {
		return fmt.Errorf("metrics: time %v before last %v", t, s.ts[n-1])
	}
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
	return nil
}

// Len returns the number of points.
func (s *TimeSeries) Len() int { return len(s.ts) }

// Point returns the i-th (time, value) pair.
func (s *TimeSeries) Point(i int) (float64, float64) { return s.ts[i], s.vs[i] }
