package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/apple-nfv/apple/internal/policy"
)

// Helpers the tests of this package share: the replay's flattened trace,
// the evaluation's exclusion pair, the all-topology policy audit and a
// replay window's rule churn.

// TraceString flattens the replay into one deterministic string: the
// per-step trace followed by sorted counter values. Two replays of the
// same config must produce equal TraceStrings; a zero fault plan must
// produce the TraceString of a fault-free run.
func (r *ChurnResult) TraceString() string {
	var b strings.Builder
	for _, line := range r.Trace {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "final extra=%d peak=%d pending=%d zombies=%d transitions=%d events=%d\n",
		r.FinalExtraCores, r.PeakExtraCores, r.PendingSpawns, r.Zombies, r.Transitions, r.Events)
	for _, set := range []struct {
		name string
		vals map[string]uint64
	}{{"orch", r.OrchCounters}, {"handler", r.HandlerCounters}} {
		keys := make([]string, 0, len(set.vals))
		for k := range set.vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s.%s=%d\n", set.name, k, set.vals[k])
		}
	}
	return b.String()
}

// DefaultAntiAffinity is the paper-style exclusion used across the
// evaluation: an IDS and a Proxy must not share an APPLE host (a noisy
// DPI neighbour next to a latency-sensitive terminating NF).
func DefaultAntiAffinity() []policy.NFPair {
	p, err := policy.NewNFPair(policy.IDS, policy.Proxy)
	if err != nil {
		panic(err) // static catalogue NFs; cannot fail
	}
	return []policy.NFPair{p}
}

// PolicyAuditAll audits every scenario in Table V order.
func PolicyAuditAll(scs []*Scenario, pairs []policy.NFPair) ([]PolicyAuditRow, error) {
	rows := make([]PolicyAuditRow, 0, len(scs))
	for _, sc := range scs {
		row, err := PolicyAudit(sc, pairs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RulesTouched is the window's flow-table churn.
func (w ReplayWindow) RulesTouched() int { return w.Report.RulesInstalled + w.Report.RulesRemoved }
