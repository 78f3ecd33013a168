package controller

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// faultySetup is overloadedSetup with an injected fault plan.
func faultySetup(t *testing.T, plan orchestrator.FaultPlan) (*Controller, *DynamicHandler, *sim.Simulation) {
	t.Helper()
	g := lineTopo(t, 4)
	clock := sim.New()
	c, err := New(Config{Topology: g, Clock: clock, Seed: 7, Faults: &plan})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	classes := []core.Class{
		{ID: 0, Path: linePath(4), Chain: policy.Chain{policy.Firewall}, RateMbps: 450},
	}
	prob := &core.Problem{Topo: g, Classes: classes, Avail: c.Avail()}
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := c.InstallPlacement(prob, pl); err != nil {
		t.Fatalf("InstallPlacement: %v", err)
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatalf("NewDynamicHandler: %v", err)
	}
	return c, d, clock
}

func assertInvariants(t *testing.T, d *DynamicHandler) {
	t.Helper()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnBootFailureFreesSlot: a spawn whose boot dies must release
// its pending (switch, NF) slot and accounting so the next surge round
// can retry — the seed leaked the slot forever.
func TestSpawnBootFailureFreesSlot(t *testing.T) {
	c, d, clock := faultySetup(t, orchestrator.FaultPlan{BootFailOn: []int{1}})
	surge := map[core.ClassID]float64{0: 1600}
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	if d.PendingSpawns() != 1 || d.ExtraCores() == 0 {
		t.Fatalf("spawn not in flight: pending=%d extra=%d", d.PendingSpawns(), d.ExtraCores())
	}
	clock.Run(6 * time.Second)
	// The boot failed: slot free, cores released, class unchanged.
	if d.PendingSpawns() != 0 {
		t.Fatalf("pending slot leaked after boot failure: %d", d.PendingSpawns())
	}
	if d.ExtraCores() != 0 {
		t.Fatalf("extra cores leaked after boot failure: %d", d.ExtraCores())
	}
	if d.Counters().Get(CtrSpawnFailures) != 1 {
		t.Fatalf("counters: %s", d.Counters())
	}
	assertInvariants(t, d)
	// The surge persists: the handler must be able to retry (launch #2
	// is unscripted and succeeds).
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	if d.PendingSpawns() != 1 {
		t.Fatal("no respawn after the failed boot freed the slot")
	}
	if err := clock.AdvanceTo(clock.Now() + 6*time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != 2 {
		t.Fatalf("retry did not activate: %d sub-classes", a.NumSubclasses())
	}
	assertInvariants(t, d)
}

// TestRollbackDuringBoot: recovery arrives while the spawned instance is
// still booting. The rollback cancels it mid-boot; the boot callback
// fires as an abort; nothing leaks and the class is back on base.
func TestRollbackDuringBoot(t *testing.T) {
	c, d, clock := faultySetup(t, orchestrator.FaultPlan{})
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	if d.PendingSpawns() != 1 {
		t.Fatalf("pending = %d, want 1", d.PendingSpawns())
	}
	// Recovery before the 3.9 s boot completes.
	clock.Run(time.Second)
	n, err := d.Observe(map[core.ClassID]float64{0: 100})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("rollback not detected")
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != a.NumBase() {
		t.Fatalf("class not rolled back: %d sub-classes", a.NumSubclasses())
	}
	// The cancelled boot's callback has not fired yet, so its slot is
	// legitimately busy; it must clear once the callback lands.
	assertInvariants(t, d)
	if err := clock.AdvanceTo(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.PendingSpawns() != 0 || d.ExtraCores() != 0 || d.Zombies() != 0 {
		t.Fatalf("leak after aborted boot: pending=%d extra=%d zombies=%d",
			d.PendingSpawns(), d.ExtraCores(), d.Zombies())
	}
	if d.Counters().Get(CtrSpawnAborts) != 1 {
		t.Fatalf("counters: %s", d.Counters())
	}
	assertInvariants(t, d)
}

// TestRollbackWithLostCancelGoesStale: rollback during boot whose cancel
// RPC is lost. The instance keeps booting as a zombie (cores truthfully
// accounted), its activation is dropped as stale, and the retried cancel
// finally frees everything.
func TestRollbackWithLostCancelGoesStale(t *testing.T) {
	c, d, clock := faultySetup(t, orchestrator.FaultPlan{CancelFailOn: []int{1}})
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	clock.Run(time.Second)
	if _, err := d.Observe(map[core.ClassID]float64{0: 100}); err != nil {
		t.Fatal(err)
	}
	// The cancel was lost: the spawn is a zombie, still booting, still
	// holding its cores.
	if d.Zombies() != 1 {
		t.Fatalf("zombies = %d, want 1", d.Zombies())
	}
	if d.ExtraCores() == 0 {
		t.Fatal("zombie cores not accounted")
	}
	if d.Counters().Get(CtrZombieCancels) != 1 {
		t.Fatalf("counters: %s", d.Counters())
	}
	assertInvariants(t, d)
	// The boot completes → activation fires → dropped as stale (the
	// rollback started a new generation of the class) → cancel retried
	// and succeeds.
	if err := clock.AdvanceTo(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Counters().Get(CtrStaleActivations) != 1 {
		t.Fatalf("stale activation not recorded: %s", d.Counters())
	}
	if d.PendingSpawns() != 0 || d.ExtraCores() != 0 || d.Zombies() != 0 {
		t.Fatalf("leak after stale activation: pending=%d extra=%d zombies=%d",
			d.PendingSpawns(), d.ExtraCores(), d.Zombies())
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != a.NumBase() {
		t.Fatalf("stale activation resurrected a sub-class: %d", a.NumSubclasses())
	}
	assertInvariants(t, d)
}

// TestZombieReapedOnNextObserve: a cancel lost during a normal (post-
// activation) rollback leaves a zombie that the next Observe reaps.
func TestZombieReapedOnNextObserve(t *testing.T) {
	_, d, clock := faultySetup(t, orchestrator.FaultPlan{CancelFailOn: []int{1}})
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	if _, err := d.Observe(map[core.ClassID]float64{0: 100}); err != nil {
		t.Fatal(err)
	}
	if d.Zombies() != 1 || d.ExtraCores() == 0 {
		t.Fatalf("no zombie after lost cancel: zombies=%d extra=%d", d.Zombies(), d.ExtraCores())
	}
	assertInvariants(t, d)
	// Next observation retries the cancel (ordinal 2, unscripted).
	if _, err := d.Observe(map[core.ClassID]float64{0: 100}); err != nil {
		t.Fatal(err)
	}
	if d.Zombies() != 0 || d.ExtraCores() != 0 {
		t.Fatalf("zombie not reaped: zombies=%d extra=%d", d.Zombies(), d.ExtraCores())
	}
	if d.Counters().Get(CtrZombiesReaped) != 1 {
		t.Fatalf("counters: %s", d.Counters())
	}
	assertInvariants(t, d)
}

// TestInvariantsCatchLaunchCancelledBehindTheHandler: an activated
// launch's VM cancelled at the orchestrator, not through the handler,
// leaves the ledger holding cores for an instance nobody manages, and
// CheckInvariants names it.
func TestInvariantsCatchLaunchCancelledBehindTheHandler(t *testing.T) {
	c, d, clock := faultySetup(t, orchestrator.FaultPlan{})
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	if d.Counters().Get(CtrActivations) != 1 || len(d.states[0]) != 1 {
		t.Fatalf("surge did not activate one launch: %s, launches %v", d.Counters(), d.states[0])
	}
	assertInvariants(t, d)
	id := d.states[0][0]
	if err := c.Orchestrator().Cancel(id); err != nil {
		t.Fatal(err)
	}
	err := d.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), string(id)) || !strings.Contains(err.Error(), "unknown to the orchestrator") {
		t.Fatalf("CheckInvariants = %v, want %s reported unknown to the orchestrator", err, id)
	}
}

// TestLoadsRefreshedAfterTransition: after Observe handles a transition,
// instance offered loads must reflect the post-rebalance weights — the
// seed applied loads computed before the detector loop, so every
// instance kept its pre-failover load until the next observation.
func TestLoadsRefreshedAfterTransition(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	clock := cClock(c)
	surge := map[core.ClassID]float64{0: 1600}
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	clock.Run(6 * time.Second)
	// Sustained surge: the second Observe re-balances again (the spawned
	// sibling absorbs weight). Offered loads must match the weights as
	// they stand after that re-balance.
	if _, err := d.Observe(surge); err != nil {
		t.Fatal(err)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() < 2 {
		t.Fatalf("no spawned sub-class: %d", a.NumSubclasses())
	}
	loads := c.Loads(surge)
	for s := 0; s < a.NumSubclasses(); s++ {
		for _, id := range a.Instances(s) {
			inst, err := c.findInstance(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inst.Offered(), loads[id]; got != want {
				t.Fatalf("instance %s offered %v, current weights say %v (stale loads applied)", id, got, want)
			}
		}
	}
	assertInvariants(t, d)
}

// TestOverloadFaultLeavesStateUntouched: an overload reshapes a clone, so
// a fault at its classification flip leaves weights and rules as they
// were — byte-identical to before Observe — and launches no failover
// instance: spawns follow the commit.
func TestOverloadFaultLeavesStateUntouched(t *testing.T) {
	c, d, _ := overloadedSetup(t)
	want := c.Snapshot().String()
	c.failpoint = func(p string) error {
		if p == "cutover:cls:0" {
			return errInjected
		}
		return nil
	}
	if _, err := d.Observe(map[core.ClassID]float64{0: 1600}); !errors.Is(err, errInjected) {
		t.Fatalf("Observe = %v, want the injected fault", err)
	}
	if got := c.Snapshot().String(); got != want {
		t.Fatalf("state after the failed overload: %s", firstDiff(want, got))
	}
	if d.PendingSpawns() != 0 || d.ExtraCores() != 0 {
		t.Fatalf("failed overload spawned: pending=%d extra=%d", d.PendingSpawns(), d.ExtraCores())
	}
	assertInvariants(t, d)
}

// TestRollbackEnforcedAtEveryStep: a rollback flips classification back to
// the base sub-classes before it retires the re-pinned one's steering, so
// the class passes its enforcement probes at every step of the cutover.
// Removing the steering first would leave classification sending traffic
// to a sub-class tag with no steering behind it.
func TestRollbackEnforcedAtEveryStep(t *testing.T) {
	c, d := repinSetup(t)
	if err := observeOnce(d, repinSurge); err != nil {
		t.Fatalf("overload: %v", err)
	}
	var steps []string
	c.failpoint = func(p string) error {
		if !strings.HasPrefix(p, "cutover:") {
			return nil
		}
		steps = append(steps, p)
		return c.CheckClassEnforcement(0)
	}
	if err := observeOnce(d, repinCalm); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if !reflect.DeepEqual(steps, reshapePoints) {
		t.Fatalf("rollback stepped through %v, want %v", steps, reshapePoints)
	}
	a, err := c.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSubclasses() != a.NumBase() {
		t.Fatalf("not rolled back: %d sub-classes, base %d", a.NumSubclasses(), a.NumBase())
	}
	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement after rollback: %v", err)
	}
	assertInvariants(t, d)
}
