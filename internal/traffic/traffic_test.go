package traffic

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := NewMatrix(-1); err == nil {
		t.Error("negative size should fail")
	}
	m, err := NewMatrix(3)
	if err != nil || m.N() != 3 {
		t.Fatalf("NewMatrix = %v, %v", m, err)
	}
}

func TestSetAtTotal(t *testing.T) {
	m := MustNewMatrix(3)
	if err := m.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(1, 2, 50); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 100 || m.At(1, 2) != 50 || m.At(2, 0) != 0 {
		t.Fatal("At values wrong")
	}
	if m.Total() != 150 {
		t.Fatalf("Total = %v", m.Total())
	}
	if m.At(-1, 0) != 0 || m.At(0, 9) != 0 {
		t.Fatal("out-of-range At should be 0")
	}
}

func TestSetValidation(t *testing.T) {
	m := MustNewMatrix(2)
	if err := m.Set(0, 0, 1); err == nil {
		t.Error("self demand should fail")
	}
	if err := m.Set(0, 5, 1); err == nil {
		t.Error("out-of-range should fail")
	}
	if err := m.Set(0, 1, -1); err == nil {
		t.Error("negative rate should fail")
	}
	if err := m.Set(0, 1, math.NaN()); err == nil {
		t.Error("NaN rate should fail")
	}
}

func TestScaleClone(t *testing.T) {
	m := MustNewMatrix(2)
	if err := m.Set(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	s, err := m.Scale(2.5)
	if err != nil || s.At(0, 1) != 25 {
		t.Fatalf("Scale = %v, %v", s.At(0, 1), err)
	}
	if _, err := m.Scale(-1); err == nil {
		t.Error("negative scale should fail")
	}
	c := m.Clone()
	if err := c.Set(0, 1, 99); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 10 {
		t.Fatal("Clone shares storage")
	}
}

func TestMean(t *testing.T) {
	a := MustNewMatrix(2)
	b := MustNewMatrix(2)
	if err := a.Set(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Set(0, 1, 30); err != nil {
		t.Fatal(err)
	}
	mean, err := Mean([]*Matrix{a, b})
	if err != nil || mean.At(0, 1) != 20 {
		t.Fatalf("Mean = %v, %v", mean.At(0, 1), err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty series should fail")
	}
	c := MustNewMatrix(3)
	if _, err := Mean([]*Matrix{a, c}); err == nil {
		t.Error("mismatched sizes should fail")
	}
}

func TestPeakPair(t *testing.T) {
	m := MustNewMatrix(3)
	if err := m.Set(2, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	i, j, v := m.PeakPair()
	if i != 1 || j != 2 || v != 9 {
		t.Fatalf("PeakPair = %d,%d,%v", i, j, v)
	}
}

func TestGravity(t *testing.T) {
	masses := []float64{1, 2, 3}
	m, err := Gravity(masses, 600)
	if err != nil {
		t.Fatalf("Gravity: %v", err)
	}
	if math.Abs(m.Total()-600) > 1e-9 {
		t.Fatalf("Total = %v, want 600", m.Total())
	}
	// demand(2,1) / demand(1,0) = (3·2)/(2·1) = 3.
	if r := m.At(2, 1) / m.At(1, 0); math.Abs(r-3) > 1e-9 {
		t.Fatalf("gravity ratio = %v, want 3", r)
	}
	if m.At(0, 0) != 0 {
		t.Fatal("diagonal must be zero")
	}
}

func TestGravityValidation(t *testing.T) {
	if _, err := Gravity([]float64{1}, 10); err == nil {
		t.Error("single node should fail")
	}
	if _, err := Gravity([]float64{1, -1}, 10); err == nil {
		t.Error("negative mass should fail")
	}
	if _, err := Gravity([]float64{1, 0, 0}, 10); err == nil {
		t.Error("fewer than two positive masses should fail")
	}
	if _, err := Gravity([]float64{1, 2}, -5); err == nil {
		t.Error("negative total should fail")
	}
}

func TestMVRNoise(t *testing.T) {
	m := MustNewMatrix(2)
	if err := m.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	out, err := MVRNoise(m, 0.05, 1.5, rng)
	if err != nil {
		t.Fatalf("MVRNoise: %v", err)
	}
	if out.At(0, 1) < 0 {
		t.Fatal("noise must not produce negative rates")
	}
	if out.At(1, 0) != 0 {
		t.Fatal("zero entries must stay zero")
	}
	if _, err := MVRNoise(m, -1, 1.5, rng); err == nil {
		t.Error("negative a should fail")
	}
	if _, err := MVRNoise(m, 0.1, 3, rng); err == nil {
		t.Error("b > 2 should fail")
	}
	if _, err := MVRNoise(m, 0.1, 1.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestDiurnalDefaults(t *testing.T) {
	base := MustNewMatrix(3)
	if err := base.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	series, err := Diurnal(base, DiurnalOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Diurnal: %v", err)
	}
	if len(series) != 672 {
		t.Fatalf("default snapshots = %d, want 672 (four weeks hourly)", len(series))
	}
	// Mean of the series should be within 15% of the base.
	mean, err := Mean(series)
	if err != nil {
		t.Fatal(err)
	}
	if r := mean.At(0, 1) / base.At(0, 1); r < 0.85 || r > 1.15 {
		t.Fatalf("series mean ratio = %v, want ≈1", r)
	}
	// The daily cycle must actually move traffic around.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range series {
		v := m.At(0, 1)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/math.Max(lo, 1) < 1.5 {
		t.Fatalf("diurnal swing too small: lo=%v hi=%v", lo, hi)
	}
}

func TestDiurnalDeterminism(t *testing.T) {
	base := MustNewMatrix(2)
	if err := base.Set(0, 1, 50); err != nil {
		t.Fatal(err)
	}
	a, err := Diurnal(base, DiurnalOptions{Snapshots: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diurnal(base, DiurnalOptions{Snapshots: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].At(0, 1) != b[i].At(0, 1) {
			t.Fatalf("snapshot %d differs across equal seeds", i)
		}
	}
}

func TestDiurnalValidation(t *testing.T) {
	base := MustNewMatrix(2)
	if _, err := Diurnal(nil, DiurnalOptions{}); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := Diurnal(base, DiurnalOptions{Snapshots: -1}); err == nil {
		t.Error("negative snapshots should fail")
	}
	if _, err := Diurnal(base, DiurnalOptions{PeakFactor: 0.5}); err == nil {
		t.Error("peak factor < 1 should fail")
	}
	if _, err := Diurnal(base, DiurnalOptions{WeekendFactor: 2}); err == nil {
		t.Error("weekend factor > 1 should fail")
	}
}

// TestDiurnalHourlyCycle: a snapshot is one hour, so the daily cycle
// peaks at snapshot 14 (14:00) at PeakFactor times the 02:00 trough, and
// repeats every 24 snapshots.
func TestDiurnalHourlyCycle(t *testing.T) {
	base := MustNewMatrix(2)
	if err := base.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	series, err := Diurnal(base, DiurnalOptions{Snapshots: 48, MVRA: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := func(s int) float64 { return series[s].At(0, 1) }
	if r := at(14) / at(2); math.Abs(r-3) > 0.03 {
		t.Fatalf("14:00 / 02:00 = %v, want the peak factor 3", r)
	}
	for s := 0; s < 24; s++ {
		if r := at(s+24) / at(s); math.Abs(r-1) > 0.01 {
			t.Fatalf("snapshot %d / snapshot %d = %v, want a 24-snapshot day", s+24, s, r)
		}
	}
}

func TestWeekendDip(t *testing.T) {
	base := MustNewMatrix(2)
	if err := base.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	series, err := Diurnal(base, DiurnalOptions{Snapshots: 168, MVRA: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	weekday, weekend := 0.0, 0.0
	for s, m := range series {
		if (s/24)%7 >= 5 {
			weekend += m.At(0, 1)
		} else {
			weekday += m.At(0, 1)
		}
	}
	weekday /= 5 * 24
	weekend /= 2 * 24
	if weekend >= weekday {
		t.Fatalf("weekend %v should dip below weekday %v", weekend, weekday)
	}
}

func TestReplayTrace(t *testing.T) {
	series, err := ReplayTrace(ReplayOptions{
		Nodes: 23, Snapshots: 60, MeanFlows: 40, MeanRateMbps: 20, Seed: 3,
	})
	if err != nil {
		t.Fatalf("ReplayTrace: %v", err)
	}
	if len(series) != 60 {
		t.Fatalf("snapshots = %d", len(series))
	}
	nonzero := 0
	for _, m := range series {
		if m.Total() > 0 {
			nonzero++
		}
	}
	if nonzero < 50 {
		t.Fatalf("only %d/60 snapshots have traffic", nonzero)
	}
	// Data-center traffic is bursty: relative variance should be visible.
	rv, err := RelativeVariance(series)
	if err != nil {
		t.Fatal(err)
	}
	if rv <= 0 {
		t.Fatalf("relative variance = %v, want > 0", rv)
	}
}

func TestReplayTraceValidation(t *testing.T) {
	base := ReplayOptions{Nodes: 5, Snapshots: 10, MeanFlows: 5, MeanRateMbps: 1}
	bad := []func(ReplayOptions) ReplayOptions{
		func(o ReplayOptions) ReplayOptions { o.Nodes = 1; return o },
		func(o ReplayOptions) ReplayOptions { o.Snapshots = 0; return o },
		func(o ReplayOptions) ReplayOptions { o.MeanFlows = 0; return o },
		func(o ReplayOptions) ReplayOptions { o.MeanRateMbps = 0; return o },
	}
	for i, f := range bad {
		if _, err := ReplayTrace(f(base)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSynthFNSS(t *testing.T) {
	masses := make([]float64, 10)
	for i := range masses {
		masses[i] = float64(1 + i%3)
	}
	series, err := SynthFNSS(masses, SynthOptions{TotalMbps: 1000, Snapshots: 20, Seed: 9})
	if err != nil {
		t.Fatalf("SynthFNSS: %v", err)
	}
	if len(series) != 20 {
		t.Fatalf("snapshots = %d", len(series))
	}
	mean, err := Mean(series)
	if err != nil {
		t.Fatal(err)
	}
	if r := mean.Total() / 1000; r < 0.8 || r > 1.2 {
		t.Fatalf("mean total ratio = %v, want ≈1", r)
	}
	if _, err := SynthFNSS(masses, SynthOptions{TotalMbps: 10, Snapshots: 0}); err == nil {
		t.Error("zero snapshots should fail")
	}
}

// TestSynthFNSSSpread: each OD pair fluctuates lognormally with σ = 0.4
// around the gravity matrix, so its coefficient of variation across
// snapshots is √(e^σ² − 1) ≈ 0.417 and its mean stays at the base.
func TestSynthFNSSSpread(t *testing.T) {
	series, err := SynthFNSS([]float64{1, 1}, SynthOptions{TotalMbps: 100, Snapshots: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Gravity([]float64{1, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	mean, sq := 0.0, 0.0
	for _, m := range series {
		v := m.At(0, 1)
		mean += v
		sq += v * v
	}
	n := float64(len(series))
	mean /= n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(cv-0.417) > 0.03 {
		t.Fatalf("coefficient of variation %v, want ≈0.417 (σ = 0.4)", cv)
	}
	if r := mean / base.At(0, 1); math.Abs(r-1) > 0.03 {
		t.Fatalf("mean / base = %v, want ≈1", r)
	}
}

// TestAggregationSmooths reproduces the §IV-A claim: the aggregate of many
// OD flows has lower relative variance than individual flows, under the
// power-law MVR with b < 2.
func TestAggregationSmooths(t *testing.T) {
	const n = 10
	base := MustNewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := base.Set(i, j, 10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	series, err := Diurnal(base, DiurnalOptions{
		Snapshots: 200, PeakFactor: 1, WeekendFactor: 1, MVRA: 0.5, MVRB: 1.2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Relative variance of a single OD pair.
	single := 0.0
	mean := 0.0
	for _, m := range series {
		mean += m.At(0, 1)
	}
	mean /= float64(len(series))
	for _, m := range series {
		d := m.At(0, 1) - mean
		single += d * d
	}
	single /= float64(len(series)-1) * mean * mean
	agg, err := RelativeVariance(series)
	if err != nil {
		t.Fatal(err)
	}
	if agg >= single {
		t.Fatalf("aggregate rel-var %v should be below single-flow %v", agg, single)
	}
}

func TestRelativeVarianceValidation(t *testing.T) {
	if _, err := RelativeVariance(nil); err == nil {
		t.Error("empty series should fail")
	}
	z := MustNewMatrix(2)
	if _, err := RelativeVariance([]*Matrix{z, z}); err == nil {
		t.Error("zero-mean series should fail")
	}
}

// RelativeVariance returns Var/Mean² of the per-snapshot totals of a
// series, the statistic the aggregation-smoothing claim in §IV-A is about
// and the tests' measure of a series' spread.
func RelativeVariance(series []*Matrix) (float64, error) {
	if len(series) < 2 {
		return 0, errors.New("traffic: need ≥2 snapshots")
	}
	mean := 0.0
	for _, m := range series {
		mean += m.Total()
	}
	mean /= float64(len(series))
	if mean == 0 {
		return 0, errors.New("traffic: zero-mean series")
	}
	v := 0.0
	for _, m := range series {
		d := m.Total() - mean
		v += d * d
	}
	v /= float64(len(series) - 1)
	return v / (mean * mean), nil
}
