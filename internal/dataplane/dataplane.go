// Package dataplane provides the packet-level pieces of APPLE's prototype
// evaluation (§VIII): a pktgen-style constant-rate source, a ClickOS
// passive-monitor model with finite service rate, a fluid TCP transfer
// model, and the four experiment drivers that regenerate Figs 6–9.
//
// The prototype's physical testbed (VirtualBox VM with Xen, Open vSwitch,
// network namespaces) is replaced by the discrete-event kernel in
// internal/sim; the monitor's capacity and the orchestration latencies are
// taken from the paper's own measurements so the timing behaviour — the
// thing the figures show — is preserved.
package dataplane

import (
	"errors"
	"fmt"
	"time"

	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/sim"
)

// Prototype constants. The monitor's overload policy thresholds come
// straight from §VIII-E (8.5 Kpps / 4 Kpps); its physical saturation sits
// above the policy threshold — that conservative margin is what lets the
// Fig 9 run complete with 0% loss even while the second instance spins up.
const (
	// MonitorCapacityPPS is the passive monitor's saturation (Fig 6 knee).
	MonitorCapacityPPS = 12000.0
	// DefaultOverloadPPS is the policy overload threshold.
	DefaultOverloadPPS = 8500.0
	// DefaultRollbackPPS is the policy rollback threshold.
	DefaultRollbackPPS = 4000.0
)

// Window is the measurement bin used by throughput/loss time series.
const Window = 100 * time.Millisecond

// Monitor is a passive-monitor VNF with a finite packet service rate: in
// each window it forwards up to capacity×window packets and drops the
// rest — the fluid version of the Fig 6 behaviour.
type Monitor struct {
	capacityPPS float64
	enabled     bool
}

// NewMonitor creates an enabled monitor with the given capacity.
func NewMonitor(capacityPPS float64) (*Monitor, error) {
	if capacityPPS <= 0 {
		return nil, fmt.Errorf("dataplane: capacity %v must be positive", capacityPPS)
	}
	return &Monitor{capacityPPS: capacityPPS, enabled: true}, nil
}

// SetEnabled turns the monitor on or off (a disabled monitor drops
// everything — the state of a VM that is still booting).
func (m *Monitor) SetEnabled(on bool) { m.enabled = on }

// Offer delivers a burst of packets arriving uniformly over the window
// ending at now; it returns how many were forwarded.
func (m *Monitor) Offer(now time.Duration, packets float64) float64 {
	if !m.enabled {
		return 0
	}
	capacity := m.capacityPPS * Window.Seconds()
	out := packets
	if out > capacity {
		out = capacity
	}
	return out
}

// Source is a pktgen-style constant-bit-rate packet source whose rate can
// be reprogrammed mid-run (the Fig 9 "source sending rate soars" step).
type Source struct {
	ratePPS float64
}

// NewSource creates a source at the given packet rate.
func NewSource(ratePPS float64) (*Source, error) {
	if ratePPS < 0 {
		return nil, fmt.Errorf("dataplane: negative rate %v", ratePPS)
	}
	return &Source{ratePPS: ratePPS}, nil
}

// SetRate reprograms the send rate.
func (s *Source) SetRate(pps float64) error {
	if pps < 0 {
		return fmt.Errorf("dataplane: negative rate %v", pps)
	}
	s.ratePPS = pps
	return nil
}

// Rate returns the current send rate.
func (s *Source) Rate() float64 { return s.ratePPS }

// PacketsPerWindow returns how many packets the source emits in one
// measurement window.
func (s *Source) PacketsPerWindow() float64 { return s.ratePPS * Window.Seconds() }

// RunLink drives a source through a set of parallel monitors for the
// given duration on the simulation clock, splitting traffic by the
// weights returned by split (called every window; must return one weight
// per monitor, summing to ≈1). It records a loss-rate time series and
// returns it with total loss.
func RunLink(clock *sim.Simulation, src *Source, monitors []*Monitor,
	duration time.Duration, split func(now time.Duration) []float64) (*metrics.TimeSeries, float64, error) {
	if clock == nil || src == nil || len(monitors) == 0 {
		return nil, 0, errors.New("dataplane: nil clock, source, or monitors")
	}
	series := new(metrics.TimeSeries)
	var sent, lost float64
	h, err := clock.Every(Window, Window, func(now time.Duration) {
		pkts := src.PacketsPerWindow()
		weights := split(now)
		fwd := 0.0
		for i, m := range monitors {
			w := 0.0
			if i < len(weights) {
				w = weights[i]
			}
			fwd += m.Offer(now, pkts*w)
		}
		sent += pkts
		lostNow := pkts - fwd
		if lostNow < 0 {
			lostNow = 0
		}
		lost += lostNow
		rate := 0.0
		if pkts > 0 {
			rate = lostNow / pkts
		}
		if err := series.Add(now.Seconds(), rate); err != nil {
			// Unreachable: sim time is monotone.
			panic(err)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("dataplane: %w", err)
	}
	defer h.Cancel()
	clock.Run(duration)
	totalLoss := 0.0
	if sent > 0 {
		totalLoss = lost / sent
	}
	return series, totalLoss, nil
}
