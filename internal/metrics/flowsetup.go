package metrics

import (
	"fmt"
	"sync/atomic"
)

// FlowSetupCounters aggregates the controller's class-install pipeline
// activity: how many arrivals were admitted, how much rule generation and
// installation the emit/apply stages performed, and how contended the
// flow-table write locks were. All fields are atomics so a snapshot may
// read them from another goroutine while the pipeline records without
// locks; the controller records into the package-level FlowSetup
// instance.
type FlowSetupCounters struct {
	// Batches counts AddClassBatch invocations.
	Batches atomic.Int64
	// Arrivals counts new classes admitted by the pipeline, whatever the
	// entry point.
	Arrivals atomic.Int64
	// StagedRules counts rules produced by the emit stage before
	// installation.
	StagedRules atomic.Int64
	// BatchInstalls counts per-table critical sections: one ApplyBatch
	// call covering every staged rule of a batch for that table.
	BatchInstalls atomic.Int64
	// InstalledRules counts rules written to TCAM. SkippedRules counted
	// the skip-if-present installs of shared rules a table found already
	// present; the controller now decides which routes a class installs
	// before it emits them, nothing skips, and it reads 0. It stays while
	// cmd/applebench reports it (flowtable.skipped_share, ROADMAP item 7).
	InstalledRules atomic.Int64
	SkippedRules   atomic.Int64
	// VerifyProbes counts enforcement probe packets forwarded by the
	// pipeline's verification stage.
	VerifyProbes atomic.Int64
	// SimInstall accumulates simulated TCAM programming time in
	// nanoseconds, at the paper's 70 ms per installed rule. Each pipeline
	// run programs its devices concurrently and accrues the makespan: the
	// slowest device's installs × latency. A batch of N classes is one
	// run, N single-class installs are N runs, so the ratio of the two is
	// the flow-setup speedup batching buys, independent of the benchmark
	// machine. Updates, removals and failover do not accrue.
	SimInstall atomic.Int64
	// TableContention counts flow-table write-lock acquisitions that had
	// to wait (a TryLock failed before the blocking Lock). Under the
	// single-writer, per-batch coalescing design it counts only a
	// writer waiting out a reader's lock; a high value means something
	// else is writing the tables.
	TableContention atomic.Int64
	// TableCompiles counts compiled-matcher snapshot publications: one
	// per Install/Remove and one per mutating ApplyBatch. A value close
	// to InstalledRules means updates are arriving one by one instead of
	// batched, paying a lock round-trip and a publication per rule.
	TableCompiles atomic.Int64
}

// FlowSetup is the process-wide flow-setup counter set.
var FlowSetup FlowSetupCounters

// FlowSetupSnapshot is a point-in-time copy of the counters.
type FlowSetupSnapshot struct {
	Batches, Arrivals, StagedRules, BatchInstalls int64
	InstalledRules, SkippedRules, VerifyProbes    int64
	SimInstall, TableContention, TableCompiles    int64
}

// Snapshot copies the current values.
func (c *FlowSetupCounters) Snapshot() FlowSetupSnapshot {
	return FlowSetupSnapshot{
		Batches:         c.Batches.Load(),
		Arrivals:        c.Arrivals.Load(),
		StagedRules:     c.StagedRules.Load(),
		BatchInstalls:   c.BatchInstalls.Load(),
		InstalledRules:  c.InstalledRules.Load(),
		SkippedRules:    c.SkippedRules.Load(),
		VerifyProbes:    c.VerifyProbes.Load(),
		SimInstall:      c.SimInstall.Load(),
		TableContention: c.TableContention.Load(),
		TableCompiles:   c.TableCompiles.Load(),
	}
}

// String renders the snapshot as one log line.
func (s FlowSetupSnapshot) String() string {
	return fmt.Sprintf("batches=%d arrivals=%d staged=%d batch-installs=%d installed=%d skipped=%d probes=%d sim-install=%dns contention=%d compiles=%d",
		s.Batches, s.Arrivals, s.StagedRules, s.BatchInstalls,
		s.InstalledRules, s.SkippedRules, s.VerifyProbes, s.SimInstall, s.TableContention, s.TableCompiles)
}
