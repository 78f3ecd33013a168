package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/topology"
)

// mustChurn runs a replay and fails the test on setup errors or an
// invariant violation — the baseline contract every plan must satisfy.
func mustChurn(t *testing.T, cfg ChurnConfig) *ChurnResult {
	t.Helper()
	r, err := ChurnReplay(cfg)
	if err != nil {
		t.Fatalf("ChurnReplay: %v", err)
	}
	if r.InvariantErr != nil {
		t.Fatalf("invariant violated: %v\ntrace:\n%s", r.InvariantErr, r.TraceString())
	}
	return r
}

// TestChurnReplayShape pins the replay's fixed schedule: each wave is two
// surge then two cool observations, each 3 s of virtual time after the
// last; the surge overloads the planned instance, so the handler spawns,
// and the base rate rolls every spawn back by the end.
func TestChurnReplayShape(t *testing.T) {
	r, err := ChurnReplay(ChurnConfig{Waves: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for wave := 0; wave < 2; wave++ {
		want = append(want, fmt.Sprintf("wave%d-surge0", wave), fmt.Sprintf("wave%d-surge1", wave),
			fmt.Sprintf("wave%d-cool0", wave), fmt.Sprintf("wave%d-cool1", wave))
	}
	if len(r.Trace) < len(want) {
		t.Fatalf("%d trace lines, want at least %d", len(r.Trace), len(want))
	}
	for k, label := range want {
		f := strings.Fields(r.Trace[k])
		if at := fmt.Sprintf("t=%v", time.Duration(3*(k+1))*time.Second); f[0] != at || f[1] != label {
			t.Fatalf("trace line %d = %q, want %s at %s", k, r.Trace[k], label, at)
		}
	}
	if r.PeakExtraCores == 0 || r.FinalExtraCores != 0 {
		t.Fatalf("extra cores peak %d, final %d; want a spawn that rolls back", r.PeakExtraCores, r.FinalExtraCores)
	}
}

// TestChurnZeroPlanIdentity: the fault layer must be invisible when
// unused. A nil Faults config, an explicitly zero FaultPlan, and a
// repeated run must all produce byte-identical traces — placements,
// transitions, ExtraCores, counters.
func TestChurnZeroPlanIdentity(t *testing.T) {
	base := mustChurn(t, ChurnConfig{Seed: 7, Probe: true})
	if base.EnforceErr != nil {
		t.Fatalf("enforcement broken in fault-free replay: %v", base.EnforceErr)
	}
	again := mustChurn(t, ChurnConfig{Seed: 7, Probe: true})
	if got, want := again.TraceString(), base.TraceString(); got != want {
		t.Fatalf("replay not deterministic:\n--- first\n%s\n--- second\n%s", want, got)
	}
	zero := mustChurn(t, ChurnConfig{Seed: 7, Probe: true, Faults: &orchestrator.FaultPlan{Seed: 99}})
	if got, want := zero.TraceString(), base.TraceString(); got != want {
		t.Fatalf("zero fault plan perturbed the replay:\n--- no plan\n%s\n--- zero plan\n%s", want, got)
	}
	if base.Transitions == 0 || base.PeakExtraCores == 0 {
		t.Fatalf("replay exercised nothing: %d transitions, peak %d extra cores", base.Transitions, base.PeakExtraCores)
	}
	if base.InvariantChecks == 0 {
		t.Fatal("no invariant checks ran")
	}
}

// TestChurnEveryBootFails: with BootFailProb=1 no spawn ever activates,
// yet every surge retries (the pending slot is released by the failure
// callback) and nothing leaks.
func TestChurnEveryBootFails(t *testing.T) {
	r := mustChurn(t, ChurnConfig{Seed: 7, Probe: true,
		Faults: &orchestrator.FaultPlan{Seed: 1, BootFailProb: 1}})
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken: %v", r.EnforceErr)
	}
	if r.OrchCounters[orchestrator.CtrBootFailures] == 0 {
		t.Fatal("no boot failures recorded")
	}
	if r.OrchCounters[orchestrator.CtrBoots] != 0 {
		t.Fatalf("%d boots succeeded under BootFailProb=1", r.OrchCounters[orchestrator.CtrBoots])
	}
	// Each failed boot frees its pending slot, so later surges retry:
	// strictly more launches than waves proves the slot is not leaked.
	if r.OrchCounters[orchestrator.CtrLaunches] < 3 {
		t.Fatalf("only %d launches across 3 waves — pending slot leaked?", r.OrchCounters[orchestrator.CtrLaunches])
	}
	if r.FinalExtraCores != 0 || r.PendingSpawns != 0 || r.Zombies != 0 {
		t.Fatalf("leak after quiesce: extra=%d pending=%d zombies=%d", r.FinalExtraCores, r.PendingSpawns, r.Zombies)
	}
}

// TestChurnBootTimeouts: stretched boots activate late — often after the
// recovery rolled the class back — so the stale-activation guard must
// drop them without leaking cores or slots.
func TestChurnBootTimeouts(t *testing.T) {
	r := mustChurn(t, ChurnConfig{Seed: 7, Probe: true,
		Faults: &orchestrator.FaultPlan{Seed: 2, BootTimeoutProb: 1}})
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken: %v", r.EnforceErr)
	}
	if r.OrchCounters[orchestrator.CtrBootTimeouts] == 0 {
		t.Fatal("no boot timeouts recorded")
	}
	if r.FinalExtraCores != 0 || r.PendingSpawns != 0 || r.Zombies != 0 {
		t.Fatalf("leak after quiesce: extra=%d pending=%d zombies=%d", r.FinalExtraCores, r.PendingSpawns, r.Zombies)
	}
}

// TestChurnLostCancels: lost cancel RPCs leave zombies holding cores;
// ExtraCores must stay truthful while they linger and return to zero
// once the reaper gets a cancel through.
func TestChurnLostCancels(t *testing.T) {
	r := mustChurn(t, ChurnConfig{Seed: 7, Probe: true,
		Faults: &orchestrator.FaultPlan{Seed: 3, CancelFailProb: 0.7}})
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken: %v", r.EnforceErr)
	}
	if r.HandlerCounters[controller.CtrZombieCancels] == 0 {
		t.Fatal("no cancels were lost — plan not exercised")
	}
	if r.HandlerCounters[controller.CtrZombiesReaped] == 0 {
		t.Fatal("no zombies reaped")
	}
	if r.FinalExtraCores != 0 || r.PendingSpawns != 0 || r.Zombies != 0 {
		t.Fatalf("leak after quiesce: extra=%d pending=%d zombies=%d", r.FinalExtraCores, r.PendingSpawns, r.Zombies)
	}
}

// TestChurnScriptedCrash: a dry run locates the switch that hosts the
// spawned sub-class, then a second run crashes that host mid-boot. The
// in-flight spawn aborts, accounting drains, and base enforcement is
// untouched.
func TestChurnScriptedCrash(t *testing.T) {
	// 4-core hosts hold exactly one firewall, so the spawned sub-class
	// must land on a different switch than the base instance.
	dry := mustChurn(t, ChurnConfig{Seed: 7, HostCores: 4})
	isBase := make(map[int]bool)
	for _, v := range dry.BaseSwitches {
		isBase[int(v)] = true
	}
	var target = -1
	for _, v := range dry.SpawnSwitches {
		if !isBase[int(v)] {
			target = int(v)
			break
		}
	}
	if target < 0 {
		t.Fatalf("no spawn switch distinct from base switches: spawn=%v base=%v", dry.SpawnSwitches, dry.BaseSwitches)
	}
	// First surge Observe happens at t=0; the spawn boots within 4.6 s.
	// Crashing at 1 s catches it mid-boot.
	r := mustChurn(t, ChurnConfig{Seed: 7, HostCores: 4, Probe: true,
		Faults: &orchestrator.FaultPlan{
			Crashes: []orchestrator.HostCrash{{At: time.Second, Switch: topology.NodeID(target)}},
		}})
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken after crash of a non-base host: %v", r.EnforceErr)
	}
	if r.OrchCounters[orchestrator.CtrHostCrashes] != 1 {
		t.Fatalf("host crashes = %d, want 1", r.OrchCounters[orchestrator.CtrHostCrashes])
	}
	if r.OrchCounters[orchestrator.CtrCrashedInstances] == 0 {
		t.Fatal("crash killed no instances — the in-flight spawn was not caught")
	}
	if r.FinalExtraCores != 0 || r.PendingSpawns != 0 || r.Zombies != 0 {
		t.Fatalf("leak after quiesce: extra=%d pending=%d zombies=%d", r.FinalExtraCores, r.PendingSpawns, r.Zombies)
	}
}

// TestChurnFuzzedPlans sweeps seeds over a mixed probabilistic plan —
// boot failures, timeouts, reconfigure failures, and lost cancels all at
// once — asserting the invariant audit stays clean and nothing leaks.
func TestChurnFuzzedPlans(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := mustChurn(t, ChurnConfig{Seed: 7, Waves: 4,
			Faults: &orchestrator.FaultPlan{
				Seed:                seed,
				BootFailProb:        0.3,
				BootTimeoutProb:     0.3,
				ReconfigureFailProb: 0.5,
				CancelFailProb:      0.4,
			}})
		if r.FinalExtraCores != 0 || r.PendingSpawns != 0 {
			t.Fatalf("seed %d: leak after quiesce: extra=%d pending=%d zombies=%d\ntrace:\n%s",
				seed, r.FinalExtraCores, r.PendingSpawns, r.Zombies, r.TraceString())
		}
		if r.Zombies != 0 {
			t.Fatalf("seed %d: %d zombies survived 32 quiesce rounds at CancelFailProb=0.4", seed, r.Zombies)
		}
	}
}

// TestChurnMultiClass runs two classes in opposite directions through
// the same hosts, fault-free — sub-class churn in one class must never
// disturb the other's invariants or enforcement.
func TestChurnMultiClass(t *testing.T) {
	r := mustChurn(t, ChurnConfig{Seed: 7, Classes: 2, Probe: true})
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken: %v", r.EnforceErr)
	}
	if r.Transitions == 0 {
		t.Fatal("no transitions observed")
	}
}
