package experiments

// Continuous re-optimization replay: the diurnal harness behind
// TestRunReopt. One controller lives across the whole series; every
// snapshot the parametric incremental engine re-solves the placement from
// the previous basis (dual-simplex warm start) and the controller commits
// the old→new delta through a make-before-break rule transaction, with
// the Dynamic Handler's invariant checker auditing every intermediate
// class boundary. The paper runs its Optimization Engine "periodically to
// make adjustment according to the large time-scale network dynamics"
// (§III); this driver measures exactly that loop — warm vs cold solve
// cost, and how much of the installed rule set each adjustment actually
// touches.

import (
	"errors"
	"fmt"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// ReoptConfig tunes RunReopt.
type ReoptConfig struct {
	// Snapshots is how many re-optimization passes to replay (default 24,
	// capped at the series length).
	Snapshots int
	// Stride replays every Stride-th series snapshot (default 1). Larger
	// strides mean larger rate drift per pass.
	Stride int
	// Verify re-injects enforcement probes for every class whose rules
	// changed, each pass.
	Verify bool
	// Reap decommissions idle instances after each committed pass.
	Reap bool
	// ColdBaseline additionally runs a from-scratch Engine solve per pass
	// so warm and cold costs can be compared on identical inputs.
	ColdBaseline bool
}

// ReoptPass records one re-optimization pass.
type ReoptPass struct {
	Snapshot int
	// Warm solver behavior (see core.PlaceStats).
	Warm         bool
	WarmAccepted bool
	Pivots       int
	SolveTime    time.Duration
	// Cold baseline on the same input (ColdBaseline only).
	ColdPivots    int
	ColdSolveTime time.Duration
	// Delta classification and rule churn from the committed transaction.
	Added, Removed, Updated, RateOnly, Unchanged int
	RulesTouched                                 int
	// RateDrift is the mean relative per-class rate change versus the
	// previous pass — the x-axis of the "rules touched ∝ drift" claim.
	RateDrift float64
}

// ReoptResult is the whole replay.
type ReoptResult struct {
	Topology string
	Passes   []ReoptPass
	// Violations counts audit-hook failures observed during commits. The
	// transaction aborts the pass on the first one, so any non-zero value
	// also surfaces as an error; it is reported explicitly because the
	// tests assert it is zero.
	Violations int
}

// WarmPivots and ColdPivots total the simplex work on each path,
// excluding the first pass (which is necessarily cold on both).
func (r *ReoptResult) WarmPivots() int {
	n := 0
	for _, p := range r.Passes[1:] {
		n += p.Pivots
	}
	return n
}

func (r *ReoptResult) ColdPivots() int {
	n := 0
	for _, p := range r.Passes[1:] {
		n += p.ColdPivots
	}
	return n
}

// RulesTouched totals rule churn across passes after the initial install.
func (r *ReoptResult) RulesTouched() int {
	n := 0
	for _, p := range r.Passes[1:] {
		n += p.RulesTouched
	}
	return n
}

// RunReopt replays the scenario's traffic series through one long-lived
// controller: solve (warm), diff, commit, audit — once per pass. The
// returned error is non-nil if any pass failed to commit, including any
// transient invariant violation caught by the audit hook.
func RunReopt(sc *Scenario, cfg ReoptConfig) (*ReoptResult, error) {
	if sc == nil {
		return nil, errors.New("experiments: nil scenario")
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = 1
	}
	passes := cfg.Snapshots
	if passes <= 0 {
		passes = 24
	}
	if max := (len(sc.Series) + stride - 1) / stride; passes > max {
		passes = max
	}
	base, err := sc.MeanProblem()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	hostSwitches := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		hostSwitches = append(hostSwitches, v)
	}
	clock := sim.New()
	ctrl, err := controller.New(controller.Config{
		Topology:              sc.Graph,
		Clock:                 clock,
		HostSwitches:          hostSwitches,
		HostResourcesBySwitch: sc.Avail,
		Seed:                  sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	handler, err := controller.NewDynamicHandler(ctrl)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	eng, err := core.NewIncrementalEngine(base, core.IncrementalOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ReoptResult{Topology: sc.Name, Passes: make([]ReoptPass, 0, passes)}
	step := sc.SnapshotSeconds
	if step <= 0 {
		step = 1
	}
	var prevRates map[core.ClassID]float64
	for k := 0; k < passes; k++ {
		t := k * stride
		rates := classRates(base, sc.Series[t])
		pl, st, err := eng.Place(rates)
		if err != nil {
			return res, fmt.Errorf("experiments: %s pass %d: %w", sc.Name, k, err)
		}
		if st.Warm {
			metrics.Reopt.WarmSolves.Add(1)
		} else {
			metrics.Reopt.ColdSolves.Add(1)
		}
		metrics.Reopt.SolvePivots.Add(int64(st.Pivots))
		metrics.Reopt.SolveNanos.Add(st.SolveTime.Nanoseconds())
		probT := probWithRates(base, rates)
		rep, err := ctrl.ReOptimize(probT, pl, controller.ReoptOptions{
			Verify: cfg.Verify,
			Audit:  handler.CheckInvariants,
			Reap:   cfg.Reap,
		})
		if err != nil {
			res.Violations++
			return res, fmt.Errorf("experiments: %s pass %d commit: %w", sc.Name, k, err)
		}
		pass := ReoptPass{
			Snapshot:     t,
			Warm:         st.Warm,
			WarmAccepted: st.WarmAccepted,
			Pivots:       st.Pivots,
			SolveTime:    st.SolveTime,
			Added:        rep.Added,
			Removed:      rep.Removed,
			Updated:      rep.Updated,
			RateOnly:     rep.RateOnly,
			Unchanged:    rep.Unchanged,
			RulesTouched: rep.RulesInstalled + rep.RulesRemoved,
			RateDrift:    meanDrift(prevRates, rates),
		}
		if cfg.ColdBaseline {
			cold, err := core.NewEngine(core.EngineOptions{}).Solve(probT)
			if err != nil {
				return res, fmt.Errorf("experiments: %s pass %d cold baseline: %w", sc.Name, k, err)
			}
			pass.ColdPivots = cold.Iterations
			pass.ColdSolveTime = cold.SolveTime
		}
		res.Passes = append(res.Passes, pass)
		prevRates = rates
		if err := clock.AdvanceTo(clock.Now() + time.Duration(step)*time.Second); err != nil {
			return res, fmt.Errorf("experiments: %w", err)
		}
	}
	return res, nil
}

// probWithRates copies the base problem with each class's rate replaced
// by its snapshot value. Classes whose snapshot rate is zero or negative
// are dropped — the placement omits them, and the controller removes
// their installed state that pass.
func probWithRates(base *core.Problem, rates map[core.ClassID]float64) *core.Problem {
	out := *base
	out.Classes = make([]core.Class, 0, len(base.Classes))
	for _, cl := range base.Classes {
		r, ok := rates[cl.ID]
		if !ok || r <= 0 {
			continue
		}
		cl.RateMbps = r
		out.Classes = append(out.Classes, cl)
	}
	return &out
}

// meanDrift averages the relative per-class rate change between two
// snapshots (1.0 for classes present in only one of them).
func meanDrift(prev, cur map[core.ClassID]float64) float64 {
	if prev == nil {
		return 0
	}
	n := 0
	sum := 0.0
	for id, r := range cur {
		p, ok := prev[id]
		n++
		if !ok {
			sum++
			continue
		}
		den := p
		if r > den {
			den = r
		}
		if den > 0 {
			d := r - p
			if d < 0 {
				d = -d
			}
			sum += d / den
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
