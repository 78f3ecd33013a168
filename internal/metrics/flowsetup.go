package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// FlowSetupCounters aggregates the controller's concurrent flow-setup
// pipeline activity: how many arrivals were admitted, how much rule
// generation and installation the emit/apply stages performed, and how
// contended the flow-table write locks were. All fields are atomics so
// the sharded pipeline records without locks; the controller records into
// the package-level FlowSetup instance.
type FlowSetupCounters struct {
	// Batches counts AddClassBatch invocations.
	Batches atomic.Int64
	// Arrivals counts flow-class arrivals admitted through the pipeline
	// (batched and serial).
	Arrivals atomic.Int64
	// StagedRules counts rules produced by the emit stage before
	// installation.
	StagedRules atomic.Int64
	// BatchInstalls counts per-table critical sections: one ApplyBatch
	// call covering every staged rule of a batch for that table.
	BatchInstalls atomic.Int64
	// InstalledRules and SkippedRules split staged rules into ones that
	// were written to TCAM versus skip-if-present hits on shared rules
	// (routing, host-match, pass-by) already installed.
	InstalledRules atomic.Int64
	SkippedRules   atomic.Int64
	// VerifyProbes counts enforcement probe packets forwarded by the
	// pipeline's verification stage.
	VerifyProbes atomic.Int64
	// SimInstall accumulates simulated TCAM programming time in
	// nanoseconds, at the paper's 70 ms per installed rule. The serial
	// path blocks on every install, so it accrues installs × latency; the
	// batched path programs per-device batches concurrently and accrues
	// only the makespan (the slowest device's share of each batch). The
	// ratio of the two is the flow-setup speedup the coalescing buys,
	// independent of how many host cores the benchmark machine has.
	SimInstall atomic.Int64
	// TableContention counts flow-table write-lock acquisitions that had
	// to wait (a TryLock failed before the blocking Lock). Under the
	// per-batch coalescing design this stays near zero; a high value
	// means concurrent writers are fighting over one table.
	TableContention atomic.Int64
	// TableCompiles counts compiled-matcher snapshot publications: one
	// per Install/Remove and one per mutating ApplyBatch. A value close
	// to InstalledRules means updates are arriving one by one instead of
	// batched, paying a lock round-trip and a publication per rule.
	TableCompiles atomic.Int64
	// ShardAdmits counts admitted classes per state shard.
	ShardAdmits ShardCounters
}

// FlowSetup is the process-wide flow-setup counter set.
var FlowSetup FlowSetupCounters

// FlowSetupSnapshot is a point-in-time copy of the counters.
type FlowSetupSnapshot struct {
	Batches, Arrivals, StagedRules, BatchInstalls int64
	InstalledRules, SkippedRules, VerifyProbes    int64
	SimInstall, TableContention, TableCompiles    int64
	ShardAdmits                                   []int64
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
		ShardAdmits:     c.ShardAdmits.Snapshot(),
	}
}

// String renders the snapshot as one log line.
func (s FlowSetupSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d arrivals=%d staged=%d batch-installs=%d installed=%d skipped=%d probes=%d sim-install=%dns contention=%d compiles=%d",
		s.Batches, s.Arrivals, s.StagedRules, s.BatchInstalls,
		s.InstalledRules, s.SkippedRules, s.VerifyProbes, s.SimInstall, s.TableContention, s.TableCompiles)
	if len(s.ShardAdmits) > 0 {
		fmt.Fprintf(&b, " shards=%v", s.ShardAdmits)
	}
	return b.String()
}

// ShardCounters counts events per shard index. The vector grows to fit
// the largest shard seen, so callers need not size it up front.
type ShardCounters struct {
	mu     sync.Mutex
	counts []int64 // guarded by mu
}

// Inc adds one to shard i's counter. Negative indices are ignored.
func (s *ShardCounters) Inc(i int) {
	if i < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.counts) <= i {
		s.counts = append(s.counts, 0)
	}
	s.counts[i]++
}

// Snapshot copies the per-shard counts.
func (s *ShardCounters) Snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.counts))
	copy(out, s.counts)
	return out
}

// Imbalance returns max/mean over non-empty counters (1.0 is perfectly
// balanced), or 0 when nothing was counted.
func (s *ShardCounters) Imbalance() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counts) == 0 {
		return 0
	}
	var sum, max int64
	for _, c := range s.counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.counts))
	return float64(max) / mean
}
