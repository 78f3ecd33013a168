package dataplane

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/vnf"
)

// LossPoint is one sample of the Fig 6 curve.
type LossPoint struct {
	RatePPS  float64
	LossRate float64
}

// OverloadCurve regenerates Fig 6: the passive monitor's loss rate as the
// packet sending rate sweeps past its capacity. Each rate runs for the
// given duration on a fresh monitor.
func OverloadCurve(rates []float64, duration time.Duration) ([]LossPoint, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("dataplane: no rates")
	}
	out := make([]LossPoint, 0, len(rates))
	for _, r := range rates {
		clock := sim.New()
		src, err := NewSource(r)
		if err != nil {
			return nil, err
		}
		mon, err := NewMonitor(MonitorCapacityPPS)
		if err != nil {
			return nil, err
		}
		_, loss, err := RunLink(clock, src, []*Monitor{mon}, duration,
			func(time.Duration) []float64 { return []float64{1} })
		if err != nil {
			return nil, err
		}
		out = append(out, LossPoint{RatePPS: r, LossRate: loss})
	}
	return out, nil
}

// SetupTimeResult is one Fig 7 run: the throughput time series and the
// measured zero-throughput gap, which approximates the orchestrated VM
// boot time (§VIII-B: "we approximate it by measuring the duration which
// the throughput drops to zero").
type SetupTimeResult struct {
	Throughput *metrics.TimeSeries // packets per window over time
	Gap        time.Duration
	BootTime   time.Duration
}

// SetupTimeExperiment regenerates Fig 7: a UDP flow runs through monitor
// A; at switchAt the forwarding rules are flipped to a brand-new ClickOS
// VM (rule installation takes the measured 70 ms) while the VM is still
// being orchestrated, so throughput collapses until the boot completes.
func SetupTimeExperiment(ratePPS float64, switchAt, duration time.Duration, seed int64) (SetupTimeResult, error) {
	clock := sim.New()
	lat := orchestrator.DefaultLatencies()
	rng := rand.New(rand.NewSource(seed))
	boot := lat.BootMin + time.Duration(rng.Int63n(int64(lat.BootMax-lat.BootMin)))

	src, err := NewSource(ratePPS)
	if err != nil {
		return SetupTimeResult{}, err
	}
	monA, err := NewMonitor(MonitorCapacityPPS)
	if err != nil {
		return SetupTimeResult{}, err
	}
	monB, err := NewMonitor(MonitorCapacityPPS)
	if err != nil {
		return SetupTimeResult{}, err
	}
	monB.SetEnabled(false) // not yet booted

	target := 0 // which monitor the rules currently point at
	if _, err := clock.At(switchAt+lat.RuleInstall, func(time.Duration) { target = 1 }); err != nil {
		return SetupTimeResult{}, fmt.Errorf("dataplane: %w", err)
	}
	if _, err := clock.At(switchAt+boot, func(time.Duration) { monB.SetEnabled(true) }); err != nil {
		return SetupTimeResult{}, fmt.Errorf("dataplane: %w", err)
	}

	tput := new(metrics.TimeSeries)
	gapWindows := 0
	h, err := clock.Every(Window, Window, func(now time.Duration) {
		pkts := src.PacketsPerWindow()
		var fwd float64
		if target == 0 {
			fwd = monA.Offer(now, pkts)
		} else {
			fwd = monB.Offer(now, pkts)
		}
		if fwd == 0 && pkts > 0 {
			gapWindows++
		}
		if err := tput.Add(now.Seconds(), fwd/Window.Seconds()); err != nil {
			panic(err) // unreachable: monotone time
		}
	})
	if err != nil {
		return SetupTimeResult{}, fmt.Errorf("dataplane: %w", err)
	}
	defer h.Cancel()
	clock.Run(duration)
	return SetupTimeResult{
		Throughput: tput,
		Gap:        time.Duration(gapWindows) * Window,
		BootTime:   boot,
	}, nil
}

// TransferScenario selects the failover handling for a Fig 8 TCP run.
type TransferScenario int

// The Fig 8 scenarios, plus the naive strawman (rules flipped before the
// VM is up) that motivates them.
const (
	// ScenarioNoFailover transfers with no failover at all.
	ScenarioNoFailover TransferScenario = iota + 1
	// ScenarioWaitFiveSeconds flips rules 5 s after requesting the VM —
	// by then it has fully booted (§VIII-C).
	ScenarioWaitFiveSeconds
	// ScenarioReconfigure repurposes an existing ClickOS VM: 30 ms
	// reconfigure + 70 ms rules, no outage (§VIII-D).
	ScenarioReconfigure
	// ScenarioNaive flips rules right away while the VM is still booting
	// (the Fig 7 behaviour) — shown for contrast.
	ScenarioNaive
)

// String names the scenario.
func (s TransferScenario) String() string {
	switch s {
	case ScenarioNoFailover:
		return "no-failover"
	case ScenarioWaitFiveSeconds:
		return "wait-5s"
	case ScenarioReconfigure:
		return "reconfigure"
	case ScenarioNaive:
		return "naive"
	default:
		return fmt.Sprintf("TransferScenario(%d)", int(s))
	}
}

// The Fig 8 transfer, at the prototype's scale: a 20 MB file over a
// 300 Mbps bottleneck with a 2 ms RTT, ten runs per scenario.
const (
	transferFileBytes      = 20 << 20
	transferBottleneckMbps = 300
	transferRTT            = 2 * time.Millisecond
	transferRuns           = 10
)

// TransferConfig parameterizes the Fig 8 TCP model.
type TransferConfig struct {
	// Seed drives run-to-run jitter ("their differences are due to the
	// statistical fluctuation").
	Seed int64
}

// TransferTimes regenerates one Fig 8 curve: the distribution of times to
// move the file under the given scenario. The TCP model is fluid: an
// exponential slow-start ramp to the bottleneck rate, frozen (plus an RTO
// penalty) while the path is down.
func TransferTimes(scenario TransferScenario, cfg TransferConfig) ([]float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := orchestrator.DefaultLatencies()
	out := make([]float64, 0, transferRuns)
	for run := 0; run < transferRuns; run++ {
		// Outage window [start, end) during which no progress is made.
		var outage time.Duration
		switch scenario {
		case ScenarioNoFailover, ScenarioWaitFiveSeconds:
			// Wait-5s flips rules after the VM is ready: both the old and
			// new instance are up at the flip, so zero dead time
			// (§VIII-C: "As expected, there is no overhead").
			outage = 0
		case ScenarioReconfigure:
			// Reconfiguration happens on the standby instance while the
			// active one keeps serving; the 70 ms rule flip moves traffic
			// only once the standby is ready (§VIII-D).
			outage = 0
		case ScenarioNaive:
			boot := lat.BootMin + time.Duration(rng.Int63n(int64(lat.BootMax-lat.BootMin)))
			outage = boot - lat.RuleInstall
		default:
			return nil, fmt.Errorf("dataplane: unknown scenario %v", scenario)
		}
		bytesPerSec := transferBottleneckMbps * 1e6 / 8
		// Slow start: exponential growth doubles cwnd per RTT from ~4 KiB
		// until the bottleneck; contributes a startup delay.
		rampRTTs := 12.0 // ≈ log2(bottleneck×RTT / 4KiB), prototype scale
		startup := time.Duration(rampRTTs * float64(transferRTT))
		base := transferFileBytes/bytesPerSec + startup.Seconds()
		if outage > 0 {
			// Frozen progress plus one retransmission timeout to recover.
			base += outage.Seconds() + 0.2
		}
		jitter := 1 + 0.03*rng.NormFloat64()
		if jitter < 0.9 {
			jitter = 0.9
		}
		out = append(out, base*jitter)
	}
	return out, nil
}

// DetectionEvent is one annotated moment in the Fig 9 timeline.
type DetectionEvent struct {
	At   time.Duration
	What string
}

// DetectionResult is the Fig 9 output: per-window send rate and
// per-monitor receive rates, the event log, and the total loss (0% in the
// paper).
type DetectionResult struct {
	SendRate  *metrics.TimeSeries
	MonARate  *metrics.TimeSeries
	MonBRate  *metrics.TimeSeries
	Events    []DetectionEvent
	TotalLoss float64
}

// DetectionExperiment regenerates Fig 9: the source runs at lowPPS, soars
// to highPPS at step, and falls back at stepBack. The overload detector
// (8.5 Kpps / 4 Kpps hysteresis on the monitor's per-port counter rate)
// triggers configuration of a second ClickOS monitor (30 ms reconfigure +
// 70 ms rules), after which traffic splits evenly; rollback releases it.
func DetectionExperiment(lowPPS, highPPS float64, step, stepBack, duration time.Duration) (DetectionResult, error) {
	if lowPPS <= 0 || highPPS <= lowPPS {
		return DetectionResult{}, fmt.Errorf("dataplane: bad rates %v, %v", lowPPS, highPPS)
	}
	clock := sim.New()
	lat := orchestrator.DefaultLatencies()
	src, err := NewSource(lowPPS)
	if err != nil {
		return DetectionResult{}, err
	}
	monA, err := NewMonitor(MonitorCapacityPPS)
	if err != nil {
		return DetectionResult{}, err
	}
	monB, err := NewMonitor(MonitorCapacityPPS)
	if err != nil {
		return DetectionResult{}, err
	}
	monB.SetEnabled(false)
	det, err := vnf.NewDetector(DefaultOverloadPPS, DefaultRollbackPPS)
	if err != nil {
		return DetectionResult{}, err
	}
	res := DetectionResult{
		SendRate: new(metrics.TimeSeries),
		MonARate: new(metrics.TimeSeries),
		MonBRate: new(metrics.TimeSeries),
	}
	logEvent := func(now time.Duration, what string) {
		res.Events = append(res.Events, DetectionEvent{At: now, What: what})
	}
	if _, err := clock.At(step, func(now time.Duration) {
		if err := src.SetRate(highPPS); err != nil {
			panic(err) // unreachable: highPPS validated
		}
		logEvent(now, "source rate soars")
	}); err != nil {
		return DetectionResult{}, fmt.Errorf("dataplane: %w", err)
	}
	if _, err := clock.At(stepBack, func(now time.Duration) {
		if err := src.SetRate(lowPPS); err != nil {
			panic(err)
		}
		logEvent(now, "source rate falls back")
	}); err != nil {
		return DetectionResult{}, fmt.Errorf("dataplane: %w", err)
	}
	split := false // is traffic currently split across both monitors
	provisioning := false
	var sent, lost float64
	h, err := clock.Every(Window, Window, func(now time.Duration) {
		pkts := src.PacketsPerWindow()
		wA, wB := 1.0, 0.0
		if split {
			wA, wB = 0.5, 0.5
		}
		fwd := monA.Offer(now, pkts*wA)
		fwd += monB.Offer(now, pkts*wB)
		sent += pkts
		if d := pkts - fwd; d > 0 {
			lost += d
		}
		if err := res.SendRate.Add(now.Seconds(), src.Rate()); err != nil {
			panic(err)
		}
		if err := res.MonARate.Add(now.Seconds(), pkts*wA/Window.Seconds()); err != nil {
			panic(err)
		}
		if err := res.MonBRate.Add(now.Seconds(), pkts*wB/Window.Seconds()); err != nil {
			panic(err)
		}
		// The detector watches monitor A's per-port counter rate.
		was := det.Overloaded()
		nowOver := det.Observe(pkts * wA / Window.Seconds())
		switch {
		case !was && nowOver && !split && !provisioning:
			provisioning = true
			logEvent(now, "overload detected; configuring second monitor")
			ready := lat.Reconfigure + lat.RuleInstall
			if _, err := clock.After(ready, func(at time.Duration) {
				monB.SetEnabled(true)
				split = true
				provisioning = false
				logEvent(at, "second monitor active; traffic split")
			}); err != nil {
				panic(err) // unreachable: positive delay
			}
		case was && !nowOver && split:
			split = false
			monB.SetEnabled(false)
			logEvent(now, "rollback to normal state")
		}
	})
	if err != nil {
		return DetectionResult{}, fmt.Errorf("dataplane: %w", err)
	}
	defer h.Cancel()
	clock.Run(duration)
	if sent > 0 {
		res.TotalLoss = lost / sent
	}
	return res, nil
}
