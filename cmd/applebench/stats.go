package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice. It is the
// same rule as internal/metrics.Percentile, kept here on purpose: the
// instrument must not change when the program it measures does.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercent is the reporting rule for timings: the highest candidate
// percentile that still has at least ten samples beyond it. Below twenty
// samples no percentile qualifies and the median is all that can be
// stated, so 50 is returned.
func tailPercent(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9, 99.99} {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, without the rounding of 1−p/100
			best = p
		}
	}
	return best
}

// summary is what the run envelope records for every timing, so two runs
// can be compared without re-deriving anything from raw samples.
type summary struct {
	N       int     `json:"n"`
	P25     float64 `json:"p25"`
	P50     float64 `json:"p50"`
	P75     float64 `json:"p75"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize sorts a copy of the samples and applies the reporting rule.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := tailPercent(len(s))
	return summary{
		N:       len(s),
		P25:     quantile(s, 0.25),
		P50:     quantile(s, 0.50),
		P75:     quantile(s, 0.75),
		TailPct: p,
		Tail:    quantile(s, p/100),
	}
}

// percentile is quantile over unsorted samples with p in percent.
func percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, p/100)
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
