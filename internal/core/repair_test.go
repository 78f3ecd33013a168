package core

import (
	"testing"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// TestRepairBacktracking forces the round-and-repair loop to reject its
// first cap candidate as infeasible and succeed with the second, then
// asserts the returned placement reflects the accepted re-solve (a
// regression guard: the loop previously risked reading counts from the
// rejected model).
//
// Construction: switch 1 has 18 cores, switch 2 has 8, switch 0 hosts
// nothing. Class 0 (rate 900, chain IDS) can only be processed at switch
// 1 and needs q_IDS = 1.5 there. Class 1 (rate 1350, chain NAT) can run
// at switch 1 or 2; the consolidation bias pulls it to switch 1
// (q_NAT = 1.5). Rounding up opens 2·IDS + 2·NAT = 20 cores > 18, so the
// loop must repair switch 1. The largest-footprint candidate IDS is
// capped first (q_IDS ≤ 1) — infeasible, class 0 has nowhere else to go —
// so the loop must backtrack and cap NAT instead, which pushes a third of
// class 1 to switch 2.
func TestRepairBacktracking(t *testing.T) {
	g := lineTopo(t, 3)
	prob := &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 0, Path: []topology.NodeID{0, 1}, Chain: policy.Chain{policy.IDS}, RateMbps: 900},
			{ID: 1, Path: []topology.NodeID{1, 2}, Chain: policy.Chain{policy.NAT}, RateMbps: 1350},
		},
		Avail: map[topology.NodeID]policy.Resources{
			1: {Cores: 18, MemoryMB: 64 * 1024},
			2: {Cores: 8, MemoryMB: 64 * 1024},
		},
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := map[topology.NodeID]map[policy.NF]int{
		1: {policy.IDS: 2, policy.NAT: 1},
		2: {policy.NAT: 1},
	}
	for v, nfs := range want {
		for nf, q := range nfs {
			if got := pl.Counts[v][nf]; got != q {
				t.Errorf("Counts[%d][%v] = %d, want %d (full counts: %v)", v, nf, got, q, pl.Counts)
			}
		}
	}
	if got := pl.TotalInstances(); got != 4 {
		t.Errorf("TotalInstances = %d, want 4", got)
	}
	// The accepted model's distribution must be consistent with the
	// accepted counts — i.e. the placement as a whole verifies.
	if err := pl.Verify(prob); err != nil {
		t.Errorf("placement does not verify against the accepted model: %v", err)
	}
}

// TestRepairBacktrackingExplicitSigma runs the same construction through
// the explicit-σ formulation, which shares the repair loop.
func TestRepairBacktrackingExplicitSigma(t *testing.T) {
	g := lineTopo(t, 3)
	prob := &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 0, Path: []topology.NodeID{0, 1}, Chain: policy.Chain{policy.IDS}, RateMbps: 900},
			{ID: 1, Path: []topology.NodeID{1, 2}, Chain: policy.Chain{policy.NAT}, RateMbps: 1350},
		},
		Avail: map[topology.NodeID]policy.Resources{
			1: {Cores: 18, MemoryMB: 64 * 1024},
			2: {Cores: 8, MemoryMB: 64 * 1024},
		},
	}
	pl, err := solveExplicitSigma(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got := pl.TotalInstances(); got != 4 {
		t.Errorf("TotalInstances = %d, want 4 (counts: %v)", got, pl.Counts)
	}
	if err := pl.Verify(prob); err != nil {
		t.Errorf("placement does not verify: %v", err)
	}
}
