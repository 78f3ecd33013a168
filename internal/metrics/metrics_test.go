package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.Std != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, tc := range tests {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tc.p, err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("out-of-range percentile should fail")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("empty percentile should be ErrEmpty")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestBoxplot(t *testing.T) {
	b, err := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatalf("NewBoxplot: %v", err)
	}
	if b.Min != 1 || b.Max != 8 || b.Median != 4.5 || b.Mean != 4.5 {
		t.Fatalf("Boxplot = %+v", b)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Fatalf("quartiles out of order: %+v", b)
	}
	if !strings.Contains(b.String(), "med=4.500") {
		t.Fatalf("String() = %q", b.String())
	}
	if _, err := NewBoxplot(nil); err != ErrEmpty {
		t.Fatal("empty boxplot should be ErrEmpty")
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range tests {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	q, err := c.Quantile(0.5)
	if err != nil || q != 2 {
		t.Fatalf("Quantile(0.5) = %v, %v", q, err)
	}
	if _, err := c.Quantile(0); err == nil {
		t.Fatal("Quantile(0) should fail")
	}
	if len(c.xs) != 4 {
		t.Fatalf("CDF holds %d samples, want 4", len(c.xs))
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrEmpty {
		t.Fatal("empty CDF should fail")
	}
}

// TestCDFProperties: At is monotone and hits 0 below min and 1 at max.
func TestCDFProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if c.At(sorted[0]-1) != 0 || c.At(sorted[n-1]) != 1 {
			return false
		}
		prev := -1.0
		for _, x := range sorted {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeries(t *testing.T) {
	var s TimeSeries
	for i, v := range []float64{0, 1, 0.5} {
		if err := s.Add(float64(i), v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := s.Add(1, 0); err == nil {
		t.Fatal("time going backwards should fail")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if tt, v := s.Point(1); tt != 1 || v != 1 {
		t.Fatalf("Point(1) = %v, %v", tt, v)
	}
}

// TestQuantileMatchesAt: Quantile is a right-inverse of At.
func TestQuantileMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c, err := NewCDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 1} {
		v, err := c.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		if c.At(v) < q {
			t.Fatalf("At(Quantile(%v)) = %v < %v", q, c.At(v), q)
		}
	}
}
