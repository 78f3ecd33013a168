package controller_test

import (
	"runtime"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
)

// TestColdInstallBytes: a cold InstallPlacement of Internet2's
// 24-snapshot mean problem, placed by Engine, on a fresh controller,
// allocates at most 255 000 bytes: 243 500 measured. The transaction sizes
// its undo list once from the staged installs (RuleTxn.reserveUndo);
// regrown class by class (scratch mutation: InstallPlacement without that
// call) the install takes 267 776.
func TestColdInstallBytes(t *testing.T) {
	const limit = 255_000
	if raceDetector {
		t.Skip("the race detector allocates beside the install")
	}
	sc, err := experiments.Internet2(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		hosts = append(hosts, v)
	}
	slices.Sort(hosts)
	c, err := controller.New(controller.Config{
		Topology: sc.Graph, Clock: sim.New(), HostSwitches: hosts,
		HostResourcesBySwitch: sc.Avail, Seed: sc.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = c.InstallPlacement(prob, pl)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d classes installed: %d bytes in %d objects", len(prob.Classes), bytes, after.Mallocs-before.Mallocs)
	if bytes > limit {
		t.Errorf("the cold install allocated %d bytes; the ceiling is %d", bytes, limit)
	}
}
