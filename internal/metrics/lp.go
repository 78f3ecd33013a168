package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// LPCounters aggregates solver activity across an entire run. The fields
// are atomics so a snapshot may read them from another goroutine while
// the engine records without locks. The Optimization Engine records into
// the package-level LP instance; the metrics package deliberately knows
// nothing about the lp package — callers pass plain numbers.
type LPCounters struct {
	Solves     atomic.Int64 // primary (cold) solves
	WarmHits   atomic.Int64 // re-solves served from the previous basis
	WarmMisses atomic.Int64 // re-solves that fell back to a cold solve
	// Phase1Pivots counts primal phase-1 pivots. No solve has a primal
	// phase 1 since every cold solve starts with the dual simplex, so it
	// stays 0; cmd/applebench still sums it into lp.pivots.
	Phase1Pivots atomic.Int64
	Phase2Pivots atomic.Int64 // primal clean-up pivots
	// DualPivots counts dual-simplex pivots: those of warm re-solves, and
	// those of cold solves, whose time goes to Phase1Nanos (the time to a
	// feasible basis) and whose primal clean-up goes to Phase2Pivots and
	// Phase2Nanos.
	DualPivots  atomic.Int64
	Phase1Nanos atomic.Int64
	Phase2Nanos atomic.Int64
	Singular    atomic.Int64 // solves given up as numerically singular (lp.StatusSingular)
}

// LP is the process-wide solver counter set.
var LP LPCounters

// RecordSolve adds one solve's pivot counts and phase timings. warmHit
// distinguishes re-solves that reused the previous basis from ones that
// fell back to (or started as) a cold solve; pass resolve=false for a
// primary solve, which counts toward Solves instead of the hit/miss pair.
func (c *LPCounters) RecordSolve(resolve, warmHit bool, phase2, dual int, t1, t2 time.Duration) {
	if resolve {
		if warmHit {
			c.WarmHits.Add(1)
		} else {
			c.WarmMisses.Add(1)
		}
	} else {
		c.Solves.Add(1)
	}
	c.Phase2Pivots.Add(int64(phase2))
	c.DualPivots.Add(int64(dual))
	c.Phase1Nanos.Add(int64(t1))
	c.Phase2Nanos.Add(int64(t2))
}

// LPSnapshot is a point-in-time copy of the counters, cheap to diff.
type LPSnapshot struct {
	Solves       int64
	WarmHits     int64
	WarmMisses   int64
	Phase1Pivots int64
	Phase2Pivots int64
	DualPivots   int64
	Phase1Time   time.Duration
	Phase2Time   time.Duration
	Singular     int64
}

// Snapshot reads the counters.
func (c *LPCounters) Snapshot() LPSnapshot {
	return LPSnapshot{
		Solves:       c.Solves.Load(),
		WarmHits:     c.WarmHits.Load(),
		WarmMisses:   c.WarmMisses.Load(),
		Phase1Pivots: c.Phase1Pivots.Load(),
		Phase2Pivots: c.Phase2Pivots.Load(),
		DualPivots:   c.DualPivots.Load(),
		Phase1Time:   time.Duration(c.Phase1Nanos.Load()),
		Phase2Time:   time.Duration(c.Phase2Nanos.Load()),
		Singular:     c.Singular.Load(),
	}
}

// Sub returns the counter deltas accumulated between two snapshots.
func (s LPSnapshot) Sub(prev LPSnapshot) LPSnapshot {
	return LPSnapshot{
		Solves:       s.Solves - prev.Solves,
		WarmHits:     s.WarmHits - prev.WarmHits,
		WarmMisses:   s.WarmMisses - prev.WarmMisses,
		Phase1Pivots: s.Phase1Pivots - prev.Phase1Pivots,
		Phase2Pivots: s.Phase2Pivots - prev.Phase2Pivots,
		DualPivots:   s.DualPivots - prev.DualPivots,
		Phase1Time:   s.Phase1Time - prev.Phase1Time,
		Phase2Time:   s.Phase2Time - prev.Phase2Time,
		Singular:     s.Singular - prev.Singular,
	}
}

// String renders the snapshot compactly for logs.
func (s LPSnapshot) String() string {
	return fmt.Sprintf("solves=%d warm=%d/%d pivots=%d+%d+%d p1=%v p2=%v",
		s.Solves, s.WarmHits, s.WarmHits+s.WarmMisses,
		s.Phase1Pivots, s.Phase2Pivots, s.DualPivots, s.Phase1Time, s.Phase2Time)
}
