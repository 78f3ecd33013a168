package metrics

import "sync/atomic"

// TxnCounters aggregates rule-transaction activity: how many RuleTxn
// commits ran, how many had to unwind, and how much flow-table churn
// they caused. All fields are atomics; the controller records into the
// package-level Txn instance.
type TxnCounters struct {
	// Begun counts Commit calls entered (every one ends in exactly one
	// of Committed or Unwound).
	Begun atomic.Int64
	// Committed counts transactions that committed.
	Committed atomic.Int64
	// Unwound counts transactions rolled back to their pre-txn state.
	Unwound atomic.Int64
	// RulesInstalled and RulesRemoved total the TCAM writes committed
	// transactions performed (unwound work is not counted — it was
	// undone).
	RulesInstalled atomic.Int64
	RulesRemoved   atomic.Int64
	// TablesRestored counts flow tables rolled back to their
	// pre-transaction state across all unwinds.
	TablesRestored atomic.Int64
}

// Txn is the process-wide rule-transaction counter set.
var Txn TxnCounters

// ReoptCounters aggregates the continuous re-optimization loop: per
// traffic snapshot, how the incremental solver performed and how much of
// the installed rule set actually had to move. The controller and the
// diurnal driver record into the package-level Reopt instance.
type ReoptCounters struct {
	// Snapshots counts ReOptimize passes committed.
	Snapshots atomic.Int64
	// WarmSolves / ColdSolves split LP solves by whether the carried
	// basis was reused.
	WarmSolves atomic.Int64
	ColdSolves atomic.Int64
	// SolvePivots totals simplex pivots across all re-optimization
	// solves; SolveNanos totals their wall-clock time.
	SolvePivots atomic.Int64
	SolveNanos  atomic.Int64
	// ClassesAdded/Removed/Updated/RateOnly/Unchanged classify the
	// per-class deltas each snapshot produced: full installs, removals,
	// rule-changing cutovers, bookkeeping-only rate refreshes, and
	// classes whose rules were left untouched.
	ClassesAdded     atomic.Int64
	ClassesRemoved   atomic.Int64
	ClassesUpdated   atomic.Int64
	ClassesRateOnly  atomic.Int64
	ClassesUnchanged atomic.Int64
	// RulesTouched totals installed + removed rules across committed
	// re-optimization transactions — the Fig-style "delta ∝ drift"
	// metric.
	RulesTouched atomic.Int64
}

// Reopt is the process-wide re-optimization counter set.
var Reopt ReoptCounters
