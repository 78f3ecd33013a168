package experiments

// The replay loop: one long-lived controller, Dynamic Handler and warm
// incremental engine carry a scenario's traffic series from the first
// snapshot to the last. Every window of snapshots the engine re-solves the
// placement from the previous basis on the window-mean rates and the
// controller commits the old→new delta through a make-before-break rule
// transaction, probed and audited at every class boundary. The paper runs
// its Optimization Engine "periodically to make adjustment according to
// the large time-scale network dynamics" (§III) while fast failover
// absorbs what happens inside a window (§VI); this is that system, and
// Fig 12 and the re-optimisation gates both measure it.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/traffic"
)

// ReplayConfig tunes Replay.
type ReplayConfig struct {
	// Snapshots is how many series snapshots to replay; zero, or more
	// than the series holds, replays the whole series.
	Snapshots int
	// Window is how many snapshots share one re-optimisation pass
	// (default 1).
	Window int
	// Failover runs the Dynamic Handler's Observe on every snapshot;
	// without it overloads simply drop traffic.
	Failover bool
}

// ReplayWindow records one re-optimisation pass.
type ReplayWindow struct {
	// Start is the window's first snapshot.
	Start int
	// Refused is the Place or ReOptimize error that turned the window's
	// placement down; the generation installed before it kept running.
	// Nil when the placement committed.
	Refused error
	// Place is the warm solver's behaviour; Report is the committed
	// delta (zero when refused).
	Place  core.PlaceStats
	Report controller.ReoptReport
	// RateDrift is the mean relative per-class rate change versus the
	// previous window.
	RateDrift float64
}

// ReplayResult is one whole replay: the passes, the loss time series and
// the failover hardware cost.
type ReplayResult struct {
	Topology string
	Windows  []ReplayWindow
	Loss     *metrics.TimeSeries
	MeanLoss float64
	// PeakExtraCores is the maximum concurrent failover hardware;
	// MeanExtraCores is the replay average (the paper's "average
	// additional cores ... is less than 17" metric).
	PeakExtraCores int
	MeanExtraCores float64
}

// Refused counts the windows whose placement was turned down.
func (r *ReplayResult) Refused() int {
	n := 0
	for _, w := range r.Windows {
		if w.Refused != nil {
			n++
		}
	}
	return n
}

// Replay runs the scenario's series through one controller built over
// the series-mean class set: per window, warm Place → ReOptimize (with
// Verify, Reap and the handler's invariant audit); per snapshot, Observe
// (Failover only) → LossRate → clock advance. A refused window is
// recorded and the installed generation carries it; only a refusal of the
// first window, which leaves nothing installed, is an error.
func Replay(sc *Scenario, cfg ReplayConfig) (*ReplayResult, error) {
	if sc == nil {
		return nil, errors.New("experiments: nil scenario")
	}
	snapshots := cfg.Snapshots
	if snapshots <= 0 || snapshots > len(sc.Series) {
		snapshots = len(sc.Series)
	}
	window := max(cfg.Window, 1)
	base, err := sc.MeanProblem()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	clock := sim.New()
	ctrl, err := sc.newController(clock)
	if err != nil {
		return nil, err
	}
	handler, err := controller.NewDynamicHandler(ctrl)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	eng, err := core.NewIncrementalEngine(base, core.IncrementalOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ReplayResult{Topology: sc.Name, Loss: new(metrics.TimeSeries)}
	step := time.Duration(max(sc.SnapshotSeconds, 1)) * time.Second
	lossSum, extraSum := 0.0, 0.0
	var prevRates map[core.ClassID]float64
	for start := 0; start < snapshots; start += window {
		end := min(start+window, snapshots)
		mean, err := traffic.Mean(sc.Series[start:end])
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		rates := classRates(base, mean)
		w := ReplayWindow{Start: start, RateDrift: meanDrift(prevRates, rates)}
		prevRates = rates
		var pl *core.Placement
		pl, w.Place, err = eng.Place(rates)
		if err == nil {
			recordPlace(w.Place)
			var rep *controller.ReoptReport
			rep, err = ctrl.ReOptimize(probWithRates(base, rates), pl, controller.ReoptOptions{
				Verify: true,
				Reap:   true,
				Audit:  handler.CheckInvariants,
			})
			if err == nil {
				w.Report = *rep
			}
		}
		if err != nil {
			if start == 0 {
				return nil, fmt.Errorf("experiments: %s: first window: %w", sc.Name, err)
			}
			w.Refused = err
		}
		res.Windows = append(res.Windows, w)
		for t := start; t < end; t++ {
			rates := classRates(base, sc.Series[t])
			if cfg.Failover {
				if _, err := handler.Observe(rates); err != nil {
					return nil, fmt.Errorf("experiments: %s snapshot %d: %w", sc.Name, t, err)
				}
			}
			loss, err := ctrl.LossRate(rates)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s snapshot %d: %w", sc.Name, t, err)
			}
			if err := res.Loss.Add(float64(t), loss); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			lossSum += loss
			extraSum += float64(handler.ExtraCores())
			if err := clock.AdvanceTo(clock.Now() + step); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
		}
	}
	res.MeanLoss = lossSum / float64(snapshots)
	res.MeanExtraCores = extraSum / float64(snapshots)
	res.PeakExtraCores = handler.PeakExtraCores()
	return res, nil
}

// recordPlace feeds one solve into the process-wide re-optimisation
// counters.
func recordPlace(st core.PlaceStats) {
	if st.Warm {
		metrics.Reopt.WarmSolves.Add(1)
	} else {
		metrics.Reopt.ColdSolves.Add(1)
	}
	metrics.Reopt.SolvePivots.Add(int64(st.Pivots))
	metrics.Reopt.SolveNanos.Add(st.SolveTime.Nanoseconds())
}

// fig12Window is how many snapshots pass between periodic runs of the
// Optimization Engine during the Fig 12 replay. Six hourly snapshots per
// window tracks the diurnal ramp the way a periodic re-optimizer would.
const fig12Window = 6

// Fig12 regenerates the loss-over-time replay: the engine re-plans on
// each 6-snapshot window's mean matrix, and the series is replayed
// snapshot by snapshot against the installed plan, with or without the
// Dynamic Handler.
func Fig12(sc *Scenario, snapshots int, withFailover bool) (*ReplayResult, error) {
	return Replay(sc, ReplayConfig{Snapshots: snapshots, Window: fig12Window, Failover: withFailover})
}

// classRates maps one snapshot back onto the placed classes: every class
// keeps its OD pair (path endpoints), so its snapshot rate is the OD
// entry scaled by nothing — classes were built per OD pair.
func classRates(prob *core.Problem, tm *traffic.Matrix) map[core.ClassID]float64 {
	out := make(map[core.ClassID]float64, len(prob.Classes))
	for _, c := range prob.Classes {
		out[c.ID] = tm.At(int(c.Path[0]), int(c.Path[len(c.Path)-1]))
	}
	return out
}

// probWithRates copies the base problem with each class's rate replaced
// by its snapshot value. Classes whose snapshot rate is zero or negative
// are dropped — the placement omits them, and the controller removes
// their installed state that pass.
func probWithRates(base *core.Problem, rates map[core.ClassID]float64) *core.Problem {
	out := *base
	out.Classes = make([]core.Class, 0, len(base.Classes))
	for _, cl := range base.Classes {
		if r := rates[cl.ID]; r > 0 {
			cl.RateMbps = r
			out.Classes = append(out.Classes, cl)
		}
	}
	return &out
}

// meanDrift averages the relative per-class rate change between two
// windows (1.0 for classes present in only one of them).
func meanDrift(prev, cur map[core.ClassID]float64) float64 {
	if prev == nil {
		return 0
	}
	n, sum := 0, 0.0
	for id, r := range cur {
		n++
		p, ok := prev[id]
		switch {
		case !ok:
			sum++
		case max(p, r) > 0:
			sum += math.Abs(r-p) / max(p, r)
		}
	}
	for id := range prev {
		if _, ok := cur[id]; !ok {
			n++
			sum++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
