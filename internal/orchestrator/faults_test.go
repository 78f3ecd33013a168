package orchestrator

import (
	"errors"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

func TestFaultPlanValidate(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"negative prob": {BootFailProb: -0.1},
		"prob over 1":   {CancelFailProb: 1.1},
		"bad factor":    {BootTimeoutFactor: -2},
		"zero ordinal":  {BootFailOn: []int{0}},
	} {
		o, _ := newOrch(t)
		if err := o.InjectFaults(plan); err == nil {
			t.Errorf("%s: plan %+v accepted", name, plan)
		}
	}
}

func TestInjectFaultsTwiceFails(t *testing.T) {
	o, _ := newOrch(t)
	if err := o.InjectFaults(FaultPlan{}); err != nil {
		t.Fatalf("first InjectFaults: %v", err)
	}
	if err := o.InjectFaults(FaultPlan{}); err == nil {
		t.Fatal("second InjectFaults should fail")
	}
}

// TestZeroPlanPerturbsNothing: boot times under a zero plan must equal
// boot times with no plan at all — the fault RNG must never advance the
// boot-jitter RNG.
func TestZeroPlanPerturbsNothing(t *testing.T) {
	bootTimes := func(inject bool) []time.Duration {
		o, clock := newOrch(t)
		addHost(t, o, "h0", 0)
		if inject {
			if err := o.InjectFaults(FaultPlan{Seed: 1234}); err != nil {
				t.Fatalf("InjectFaults: %v", err)
			}
		}
		var times []time.Duration
		for i := 0; i < 4; i++ {
			_, err := o.Launch(policy.Firewall, 0, func(*vnf.Instance, *host.Host) {
				times = append(times, clock.Now())
			}, nil)
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			if err := clock.AdvanceTo(clock.Now() + 10*time.Second); err != nil {
				t.Fatal(err)
			}
			for _, id := range o.Instances() {
				if err := o.Cancel(id); err != nil {
					t.Fatalf("Cancel: %v", err)
				}
			}
		}
		return times
	}
	plain, injected := bootTimes(false), bootTimes(true)
	if len(plain) != 4 || len(injected) != 4 {
		t.Fatalf("boots: %d plain, %d injected, want 4 each", len(plain), len(injected))
	}
	for i := range plain {
		if plain[i] != injected[i] {
			t.Fatalf("boot %d: %v with zero plan, %v without", i, injected[i], plain[i])
		}
	}
}

func TestScriptedBootFailure(t *testing.T) {
	o, clock := newOrch(t)
	h := addHost(t, o, "h0", 0)
	if err := o.InjectFaults(FaultPlan{BootFailOn: []int{1}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	var ready bool
	var failErr error
	id, err := o.Launch(policy.Firewall, 0,
		func(*vnf.Instance, *host.Host) { ready = true },
		func(_ vnf.ID, err error) { failErr = err })
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if h.Available().Cores == host.DefaultResources().Cores {
		t.Fatal("no resources reserved during boot")
	}
	clock.Run(10 * time.Second)
	if ready {
		t.Fatal("onReady fired for a scripted boot failure")
	}
	if !errors.Is(failErr, ErrBootFailed) {
		t.Fatalf("onFail got %v, want ErrBootFailed", failErr)
	}
	if o.Known(id) || o.InFlight(id) {
		t.Fatal("failed instance still tracked")
	}
	if h.Available().Cores != host.DefaultResources().Cores {
		t.Fatal("failed boot did not release its resources")
	}
	if o.Counters().Get(CtrBootFailures) != 1 || o.Counters().Get(CtrBoots) != 0 {
		t.Fatalf("counters: %s", o.Counters())
	}
	// The next launch (ordinal 2) is unscripted and must succeed.
	if _, err := o.Launch(policy.Firewall, 0, nil, nil); err != nil {
		t.Fatalf("second Launch: %v", err)
	}
	clock.Run(10 * time.Second)
	if o.Counters().Get(CtrBoots) != 1 {
		t.Fatalf("second boot did not complete: %s", o.Counters())
	}
}

func TestScriptedBootTimeout(t *testing.T) {
	o, clock := newOrch(t)
	addHost(t, o, "h0", 0)
	if err := o.InjectFaults(FaultPlan{BootTimeoutOn: []int{1}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	var readyAt time.Duration
	if _, err := o.Launch(policy.Firewall, 0,
		func(*vnf.Instance, *host.Host) { readyAt = clock.Now() }, nil); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	clock.Run(time.Minute)
	lat := DefaultLatencies()
	min := time.Duration(DefaultBootTimeoutFactor * float64(lat.BootMin))
	max := time.Duration(DefaultBootTimeoutFactor * float64(lat.BootMax))
	if readyAt < min || readyAt > max {
		t.Fatalf("timed-out boot completed at %v, want within [%v,%v]", readyAt, min, max)
	}
	if o.Counters().Get(CtrBootTimeouts) != 1 || o.Counters().Get(CtrBoots) != 1 {
		t.Fatalf("counters: %s", o.Counters())
	}
}

func TestScriptedReconfigureFailure(t *testing.T) {
	o, clock := newOrch(t)
	addHost(t, o, "h0", 0)
	// Provision an idle NAT synchronously, then try to repurpose it.
	inst, _, err := o.PlaceNow(policy.NAT, 0)
	if err != nil {
		t.Fatalf("PlaceNow: %v", err)
	}
	if err := o.InjectFaults(FaultPlan{ReconfigureFailOn: []int{1}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	var ready bool
	var failErr error
	id, err := o.ReconfigureIdle(policy.Firewall, 0,
		func(*vnf.Instance, *host.Host) { ready = true },
		func(_ vnf.ID, err error) { failErr = err })
	if err != nil {
		t.Fatalf("ReconfigureIdle: %v", err)
	}
	if !o.InFlight(id) {
		t.Fatal("reconfiguring instance not marked in flight")
	}
	clock.Run(time.Second)
	if ready {
		t.Fatal("onReady fired for a scripted reconfigure failure")
	}
	if !errors.Is(failErr, ErrReconfigureFailed) {
		t.Fatalf("onFail got %v, want ErrReconfigureFailed", failErr)
	}
	if inst.NF() != policy.NAT {
		t.Fatalf("instance is %v after failed reconfigure, want reverted NAT", inst.NF())
	}
	if o.InFlight(id) {
		t.Fatal("in-flight mark leaked after the failure callback")
	}
	if o.Counters().Get(CtrReconfFailures) != 1 {
		t.Fatalf("counters: %s", o.Counters())
	}
}

func TestScriptedCancelFailureThenRetry(t *testing.T) {
	o, clock := newOrch(t)
	h := addHost(t, o, "h0", 0)
	if err := o.InjectFaults(FaultPlan{CancelFailOn: []int{1}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	id, err := o.Launch(policy.Firewall, 0, nil, nil)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	clock.Run(10 * time.Second)
	if err := o.Cancel(id); !errors.Is(err, ErrCancelFailed) {
		t.Fatalf("first Cancel got %v, want ErrCancelFailed", err)
	}
	if !o.Known(id) {
		t.Fatal("failed cancel removed the instance")
	}
	if h.Available().Cores == host.DefaultResources().Cores {
		t.Fatal("failed cancel released resources")
	}
	// The retry (ordinal 2) is unscripted and must go through.
	if err := o.Cancel(id); err != nil {
		t.Fatalf("retry Cancel: %v", err)
	}
	if o.Known(id) {
		t.Fatal("instance survived the successful retry")
	}
	if h.Available().Cores != host.DefaultResources().Cores {
		t.Fatal("successful cancel did not release resources")
	}
	if o.Counters().Get(CtrCancelFailures) != 1 || o.Counters().Get(CtrCancels) != 1 {
		t.Fatalf("counters: %s", o.Counters())
	}
	if err := o.Cancel(id); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("cancel of a gone instance got %v, want ErrUnknownInstance", err)
	}
}

func TestHostCrashMidBoot(t *testing.T) {
	o, clock := newOrch(t)
	h := addHost(t, o, "h0", 0)
	if err := o.InjectFaults(FaultPlan{
		Crashes: []HostCrash{{At: time.Second, Switch: 0}},
	}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	// One instance already running, one still booting when the host dies.
	runningInst, _, err := o.PlaceNow(policy.Firewall, 0)
	if err != nil {
		t.Fatalf("PlaceNow: %v", err)
	}
	var ready bool
	var failErr error
	bootID, err := o.Launch(policy.NAT, 0,
		func(*vnf.Instance, *host.Host) { ready = true },
		func(_ vnf.ID, err error) { failErr = err })
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	clock.Run(10 * time.Second)
	if ready {
		t.Fatal("onReady fired on a crashed host")
	}
	if !errors.Is(failErr, ErrAborted) {
		t.Fatalf("onFail got %v, want ErrAborted", failErr)
	}
	for _, id := range []vnf.ID{runningInst.ID(), bootID} {
		if o.Known(id) {
			t.Fatalf("%s still managed after the crash", id)
		}
		if !o.Crashed(id) {
			t.Fatalf("%s not marked crashed", id)
		}
	}
	if runningInst.State() != vnf.StateFailed {
		t.Fatalf("running instance state %v after crash, want Failed", runningInst.State())
	}
	if h.Available().Cores != host.DefaultResources().Cores {
		t.Fatal("crash did not free the host (reboots empty)")
	}
	if o.Counters().Get(CtrHostCrashes) != 1 || o.Counters().Get(CtrCrashedInstances) != 2 {
		t.Fatalf("counters: %s", o.Counters())
	}
	// The rebooted-empty host accepts new work.
	if _, _, err := o.PlaceNow(policy.Firewall, 0); err != nil {
		t.Fatalf("PlaceNow after crash: %v", err)
	}
}

func TestCrashUnknownSwitchIsNoOp(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h0", 0)
	if lost := o.Crash(topology.NodeID(99)); len(lost) != 0 {
		t.Fatalf("crash of empty switch lost %v", lost)
	}
	if o.Counters().Get(CtrHostCrashes) != 0 {
		t.Fatalf("counters: %s", o.Counters())
	}
}

// TestLifecycleCallbackFiresExactlyOnce counts the callback contract of
// Launch and ReconfigureIdle rather than checking which callback fired:
// a call that returned nil fires onReady + onFail exactly once in total,
// never synchronously, on every scripted fault and on the clean paths. A
// second onFail on some abort path passes every test that only checks
// the error; it fails this one.
func TestLifecycleCallbackFiresExactlyOnce(t *testing.T) {
	type readyFn = func(*vnf.Instance, *host.Host)
	type failFn = func(vnf.ID, error)
	launch := func(o *Orchestrator, onReady readyFn, onFail failFn) (vnf.ID, error) {
		return o.Launch(policy.Firewall, 0, onReady, onFail)
	}
	reconfigure := func(o *Orchestrator, onReady readyFn, onFail failFn) (vnf.ID, error) {
		if _, _, err := o.PlaceNow(policy.NAT, 0); err != nil {
			return "", err
		}
		return o.ReconfigureIdle(policy.Firewall, 0, onReady, onFail)
	}
	crashAt := func(at time.Duration) FaultPlan {
		return FaultPlan{Crashes: []HostCrash{{At: at, Switch: 0}}}
	}
	cases := []struct {
		name string
		plan FaultPlan
		call func(*Orchestrator, readyFn, failFn) (vnf.ID, error)
		// cancel cancels the instance right after the call returns.
		cancel bool
		ready  bool // the one callback is onReady, not onFail
	}{
		{name: "clean boot", call: launch, ready: true},
		{name: "boot failure", plan: FaultPlan{BootFailOn: []int{1}}, call: launch},
		{name: "boot timeout", plan: FaultPlan{BootTimeoutOn: []int{1}}, call: launch, ready: true},
		{name: "host crash mid-boot", plan: crashAt(time.Second), call: launch},
		{name: "cancel while booting", call: launch, cancel: true},
		{name: "clean reconfigure", call: reconfigure, ready: true},
		{name: "reconfigure failure", plan: FaultPlan{ReconfigureFailOn: []int{1}}, call: reconfigure},
		{name: "host crash mid-reconfigure", plan: crashAt(10 * time.Millisecond), call: reconfigure},
		{name: "cancel while reconfiguring", call: reconfigure, cancel: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, clock := newOrch(t)
			addHost(t, o, "h0", 0)
			if err := o.InjectFaults(tc.plan); err != nil {
				t.Fatalf("InjectFaults: %v", err)
			}
			ready, failed := 0, 0
			id, err := tc.call(o,
				func(*vnf.Instance, *host.Host) { ready++ },
				func(vnf.ID, error) { failed++ })
			if err != nil {
				t.Fatalf("lifecycle call: %v", err)
			}
			if tc.cancel {
				if err := o.Cancel(id); err != nil {
					t.Fatalf("Cancel: %v", err)
				}
			}
			if ready+failed != 0 {
				t.Fatalf("callback fired synchronously: onReady %d, onFail %d", ready, failed)
			}
			clock.Run(0)
			if ready+failed != 1 {
				t.Fatalf("onReady fired %d times and onFail %d; want one callback in total", ready, failed)
			}
			if (ready == 1) != tc.ready {
				t.Fatalf("onReady fired %d times, onFail %d; want onReady=%v", ready, failed, tc.ready)
			}
		})
	}
}

// TestProbabilisticFaultsDeterministic: two orchestrators with the same
// plan seed make identical fault decisions.
func TestProbabilisticFaultsDeterministic(t *testing.T) {
	run := func() (failures, boots uint64) {
		o, clock := newOrch(t)
		addHost(t, o, "h0", 0)
		if err := o.InjectFaults(FaultPlan{Seed: 42, BootFailProb: 0.5}); err != nil {
			t.Fatalf("InjectFaults: %v", err)
		}
		for i := 0; i < 8; i++ {
			if _, err := o.Launch(policy.Firewall, 0, nil, nil); err != nil {
				t.Fatalf("Launch: %v", err)
			}
			if err := clock.AdvanceTo(clock.Now() + 10*time.Second); err != nil {
				t.Fatal(err)
			}
			for _, id := range o.Instances() {
				if err := o.Cancel(id); err != nil {
					t.Fatalf("Cancel: %v", err)
				}
			}
		}
		return o.Counters().Get(CtrBootFailures), o.Counters().Get(CtrBoots)
	}
	f1, b1 := run()
	f2, b2 := run()
	if f1 != f2 || b1 != b2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", f1, b1, f2, b2)
	}
	if f1 == 0 || b1 == 0 {
		t.Fatalf("p=0.5 over 8 boots produced %d failures, %d boots — plan not exercised", f1, b1)
	}
}
