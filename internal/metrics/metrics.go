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
// ranks. It is the shared kernel of Percentile, Summarize, and
// NewBoxplot, letting each sort at most once.
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

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	// Index of first element > x.
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
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

// Points returns the CDF as (value, cumulative probability) steps, one per
// sample, for plotting.
func (c *CDF) Points() ([]float64, []float64) {
	xs := make([]float64, len(c.xs))
	ps := make([]float64, len(c.xs))
	copy(xs, c.xs)
	for i := range ps {
		ps[i] = float64(i+1) / float64(len(c.xs))
	}
	return xs, ps
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.xs) }

// TimeSeries is an append-only series of (time, value) points with
// non-decreasing times, used for loss-over-time and throughput plots.
type TimeSeries struct {
	name string
	ts   []float64
	vs   []float64
}

// NewTimeSeries creates a named, empty series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Name returns the series name.
func (s *TimeSeries) Name() string { return s.name }

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

// Values returns a copy of the value column.
func (s *TimeSeries) Values() []float64 {
	out := make([]float64, len(s.vs))
	copy(out, s.vs)
	return out
}

// Times returns a copy of the time column.
func (s *TimeSeries) Times() []float64 {
	out := make([]float64, len(s.ts))
	copy(out, s.ts)
	return out
}

// Max returns the maximum value, or ErrEmpty.
func (s *TimeSeries) Max() (float64, error) {
	if len(s.vs) == 0 {
		return 0, ErrEmpty
	}
	m := math.Inf(-1)
	for _, v := range s.vs {
		m = math.Max(m, v)
	}
	return m, nil
}

// Mean returns the mean value, or ErrEmpty.
func (s *TimeSeries) Mean() (float64, error) {
	if len(s.vs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs)), nil
}

// Integral returns the trapezoidal integral of the series over time; for a
// loss-rate series this is total loss volume.
func (s *TimeSeries) Integral() float64 {
	total := 0.0
	for i := 1; i < len(s.ts); i++ {
		dt := s.ts[i] - s.ts[i-1]
		total += dt * (s.vs[i] + s.vs[i-1]) / 2
	}
	return total
}
