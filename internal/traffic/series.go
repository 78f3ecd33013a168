package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// hoursPerSnapshot is the diurnal phase advance per snapshot: one
// snapshot per hour.
const hoursPerSnapshot = 1

// DiurnalOptions parameterizes a diurnal/weekly time-varying series.
type DiurnalOptions struct {
	// Snapshots is the series length. The paper combines 672 snapshots
	// per topology (four weeks of hourly matrices).
	Snapshots int
	// PeakFactor is the peak-to-trough ratio of the daily cycle
	// (default 3).
	PeakFactor float64
	// WeekendFactor scales weekend traffic (default 0.6).
	WeekendFactor float64
	// MVRA and MVRB are the mean–variance power-law parameters for
	// per-snapshot noise (defaults 0.05, 1.5).
	MVRA, MVRB float64
	// Seed makes the series deterministic.
	Seed int64
}

// withDefaults fills zero fields.
func (o DiurnalOptions) withDefaults() DiurnalOptions {
	if o.Snapshots == 0 {
		o.Snapshots = 672
	}
	if o.PeakFactor == 0 {
		o.PeakFactor = 3
	}
	if o.WeekendFactor == 0 {
		o.WeekendFactor = 0.6
	}
	if o.MVRA == 0 {
		o.MVRA = 0.05
	}
	if o.MVRB == 0 {
		o.MVRB = 1.5
	}
	return o
}

// Diurnal expands a base (mean) matrix into a time-varying series with a
// sinusoidal daily cycle, a weekend dip, and MVR noise. The series mean is
// approximately the base matrix.
func Diurnal(base *Matrix, opts DiurnalOptions) ([]*Matrix, error) {
	if base == nil {
		return nil, errors.New("traffic: nil base matrix")
	}
	o := opts.withDefaults()
	if o.Snapshots < 1 {
		return nil, fmt.Errorf("traffic: snapshots %d must be ≥1", o.Snapshots)
	}
	if o.PeakFactor < 1 {
		return nil, fmt.Errorf("traffic: peak factor %v must be ≥1", o.PeakFactor)
	}
	if o.WeekendFactor <= 0 || o.WeekendFactor > 1 {
		return nil, fmt.Errorf("traffic: weekend factor %v out of (0,1]", o.WeekendFactor)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	out := make([]*Matrix, 0, o.Snapshots)
	// amp chosen so multiplier averages ~1 over a full day:
	// mult(t) = 1 + amp*sin(...) has mean 1.
	amp := (o.PeakFactor - 1) / (o.PeakFactor + 1)
	for s := 0; s < o.Snapshots; s++ {
		hour := float64(s) * hoursPerSnapshot
		day := int(hour/24) % 7
		// Peak at 14:00, trough at 02:00.
		phase := 2 * math.Pi * (math.Mod(hour, 24) - 8) / 24
		mult := 1 + amp*math.Sin(phase)
		if day >= 5 {
			mult *= o.WeekendFactor
		}
		snap, err := base.Scale(mult)
		if err != nil {
			return nil, err
		}
		snap, err = MVRNoise(snap, o.MVRA, o.MVRB, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, snap)
	}
	return out, nil
}

// paretoShape is the flow-duration tail index of ReplayTrace: heavy
// tailed, with a finite mean.
const paretoShape = 1.5

// ReplayOptions parameterizes the UNIV1-style trace replay, where flows
// arrive between random source-destination pairs and each snapshot covers
// one second (§IX-A: "we replay the corresponding trace between random
// source-destination pairs... each snapshot lasts for one second").
type ReplayOptions struct {
	// Nodes is the switch count.
	Nodes int
	// Snapshots is the series length (seconds).
	Snapshots int
	// MeanFlows is the average number of concurrent flows.
	MeanFlows int
	// MeanRateMbps is the average per-flow rate.
	MeanRateMbps float64
	// Endpoints restricts flow sources and destinations to these nodes
	// (e.g. edge racks only); nil allows every node.
	Endpoints []int
	// Seed makes the series deterministic.
	Seed int64
}

// ReplayTrace synthesizes a bursty data-center-like series: heavy-tailed
// flow durations between uniform random OD pairs, binned into 1-second
// demand snapshots. Bursts come from flow arrivals clustering, which gives
// the fast traffic swings Fig 12 exercises fast failover with.
func ReplayTrace(opts ReplayOptions) ([]*Matrix, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("traffic: replay needs ≥2 nodes, got %d", opts.Nodes)
	}
	if opts.Snapshots < 1 {
		return nil, fmt.Errorf("traffic: snapshots %d must be ≥1", opts.Snapshots)
	}
	if opts.MeanFlows < 1 {
		return nil, fmt.Errorf("traffic: mean flows %d must be ≥1", opts.MeanFlows)
	}
	if opts.MeanRateMbps <= 0 {
		return nil, fmt.Errorf("traffic: mean rate %v must be positive", opts.MeanRateMbps)
	}
	endpoints := opts.Endpoints
	if endpoints == nil {
		endpoints = make([]int, opts.Nodes)
		for i := range endpoints {
			endpoints[i] = i
		}
	}
	if len(endpoints) < 2 {
		return nil, fmt.Errorf("traffic: need ≥2 endpoints, got %d", len(endpoints))
	}
	for _, e := range endpoints {
		if e < 0 || e >= opts.Nodes {
			return nil, fmt.Errorf("traffic: endpoint %d out of %d nodes", e, opts.Nodes)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make([]*Matrix, opts.Snapshots)
	for s := range out {
		out[s] = MustNewMatrix(opts.Nodes)
	}
	// Mean Pareto duration = xm·shape/(shape-1); choose xm so the mean is
	// ~4 seconds, then arrival rate λ = MeanFlows/meanDur keeps the target
	// concurrency.
	const meanDur = 4.0
	xm := meanDur * (paretoShape - 1) / paretoShape
	lambda := float64(opts.MeanFlows) / meanDur
	// Poisson arrivals over the horizon.
	t := 0.0
	horizon := float64(opts.Snapshots)
	for {
		t += rng.ExpFloat64() / lambda
		if t >= horizon {
			break
		}
		dur := xm / math.Pow(rng.Float64(), 1/paretoShape)
		rate := opts.MeanRateMbps * (0.5 + rng.Float64()) // ±50% spread
		si := rng.Intn(len(endpoints))
		di := rng.Intn(len(endpoints) - 1)
		if di >= si {
			di++
		}
		src, dst := endpoints[si], endpoints[di]
		end := math.Min(t+dur, horizon)
		for sec := int(t); sec < int(math.Ceil(end)); sec++ {
			overlap := math.Min(end, float64(sec+1)) - math.Max(t, float64(sec))
			if overlap <= 0 {
				continue
			}
			cur := out[sec].At(src, dst)
			if err := out[sec].Set(src, dst, cur+rate*overlap); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// logNormSigma is SynthFNSS's per-OD lognormal spread across snapshots.
const logNormSigma = 0.4

// SynthOptions parameterizes the FNSS-style synthesis used for AS-3679.
type SynthOptions struct {
	// TotalMbps is the target mean matrix total.
	TotalMbps float64
	// Snapshots is the series length.
	Snapshots int
	// Seed makes the series deterministic.
	Seed int64
}

// SynthFNSS synthesizes time-varying matrices the way the FNSS toolchain
// [35] does for Rocketfuel topologies: a static gravity model modulated by
// per-snapshot lognormal fluctuation, given per-node masses.
func SynthFNSS(masses []float64, opts SynthOptions) ([]*Matrix, error) {
	if opts.Snapshots < 1 {
		return nil, fmt.Errorf("traffic: snapshots %d must be ≥1", opts.Snapshots)
	}
	base, err := Gravity(masses, opts.TotalMbps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	n := base.N()
	out := make([]*Matrix, 0, opts.Snapshots)
	// E[lognormal(mu=-sigma^2/2, sigma)] = 1 keeps the series mean at base.
	// sigma is a variable so mu is rounded as float64 arithmetic rounds
	// it: a constant expression would be exact, and the series would move.
	sigma := logNormSigma
	mu := -sigma * sigma / 2
	for s := 0; s < opts.Snapshots; s++ {
		snap := MustNewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				f := math.Exp(mu + sigma*rng.NormFloat64())
				if err := snap.Set(i, j, base.At(i, j)*f); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, snap)
	}
	return out, nil
}
