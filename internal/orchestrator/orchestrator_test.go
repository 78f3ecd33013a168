package orchestrator

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

func newOrch(t *testing.T) (*Orchestrator, *sim.Simulation) {
	t.Helper()
	clock := sim.New()
	o, err := New(clock, DefaultLatencies(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o, clock
}

func addHost(t *testing.T, o *Orchestrator, name string, sw int) *host.Host {
	t.Helper()
	h, err := host.New(name, topology.NodeID(sw), host.DefaultResources())
	if err != nil {
		t.Fatalf("host.New: %v", err)
	}
	if err := o.AddHost(h); err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultLatencies(), 1); err == nil {
		t.Error("nil clock should fail")
	}
	bad := DefaultLatencies()
	bad.RuleInstall = 0
	if _, err := New(sim.New(), bad, 1); err == nil {
		t.Error("zero rule-install latency should fail")
	}
	bad = DefaultLatencies()
	bad.BootMax = bad.BootMin - 1
	if _, err := New(sim.New(), bad, 1); err == nil {
		t.Error("inverted boot range should fail")
	}
}

func TestDefaultLatenciesMatchPaper(t *testing.T) {
	l := DefaultLatencies()
	if l.RuleInstall != 70*time.Millisecond {
		t.Errorf("rule install = %v, want 70ms", l.RuleInstall)
	}
	if l.Reconfigure != 30*time.Millisecond {
		t.Errorf("reconfigure = %v, want 30ms", l.Reconfigure)
	}
	if l.BootMin != 3900*time.Millisecond || l.BootMax != 4600*time.Millisecond {
		t.Errorf("boot range = [%v,%v], want [3.9s,4.6s]", l.BootMin, l.BootMax)
	}
}

func TestBootStepsFig5(t *testing.T) {
	steps := BootSteps()
	if len(steps) != 10 {
		t.Fatalf("steps = %d, want 10", len(steps))
	}
	total := 0.0
	prep := 0.0
	for i, s := range steps {
		if s.Seq != i+1 {
			t.Errorf("step %d has seq %d", i, s.Seq)
		}
		if s.Share <= 0 {
			t.Errorf("step %d has share %v", s.Seq, s.Share)
		}
		total += s.Share
		if s.Seq <= 5 {
			prep += s.Share
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v", total)
	}
	// "The main reason for the longer booting time is that Openstack and
	// Opendaylight consume substantial time... (Step 1 - Step 5)".
	if prep <= 0.5 {
		t.Fatalf("steps 1-5 share = %v, should dominate", prep)
	}
}

func TestAddHostValidation(t *testing.T) {
	o, _ := newOrch(t)
	if err := o.AddHost(nil); err == nil {
		t.Error("nil host should fail")
	}
	addHost(t, o, "h1", 3)
	h, err := host.New("h1", 3, host.DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddHost(h); err == nil {
		t.Error("duplicate host name at a switch should fail")
	}
}

func TestAvailablePolling(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h1", 3)
	addHost(t, o, "h2", 3)
	if got := o.Available(3).Cores; got != 128 {
		t.Fatalf("Available cores = %d, want 128", got)
	}
	if got := o.Available(9).Cores; got != 0 {
		t.Fatalf("Available at empty switch = %d", got)
	}
	if len(o.hosts) != 1 || len(o.hosts[3]) != 2 {
		t.Fatalf("hosts by switch = %v, want both at switch 3", o.hosts)
	}
}

func TestLaunchBootTiming(t *testing.T) {
	o, clock := newOrch(t)
	addHost(t, o, "h1", 0)
	var readyAt time.Duration
	var readyInst *vnf.Instance
	id, err := o.Launch(policy.Firewall, 0, func(i *vnf.Instance, h *host.Host) {
		readyAt = clock.Now()
		readyInst = i
	}, nil)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	// Resources reserved immediately.
	if o.Available(0).Cores != 60 {
		t.Fatalf("cores after launch = %d, want 60", o.Available(0).Cores)
	}
	h, err := o.HostOf(id)
	if err != nil || h.Name() != "h1" {
		t.Fatalf("HostOf = %v, %v", h, err)
	}
	clock.Run(0)
	if readyInst == nil {
		t.Fatal("onReady never fired")
	}
	if readyInst.State() != vnf.StateRunning {
		t.Fatal("instance not running after boot")
	}
	// Boot lands in the measured 3.9–4.6 s window.
	if readyAt < 3900*time.Millisecond || readyAt > 4600*time.Millisecond {
		t.Fatalf("boot completed at %v, want within [3.9s, 4.6s]", readyAt)
	}
}

func TestLaunchNoCapacity(t *testing.T) {
	o, _ := newOrch(t)
	if _, err := o.Launch(policy.Firewall, 5, nil, nil); err == nil {
		t.Fatal("launch at switch with no hosts should fail")
	}
	if _, err := o.Launch(policy.NF(99), 0, nil, nil); err == nil {
		t.Fatal("unknown NF should fail")
	}
}

func TestLaunchPicksLeastLoadedHost(t *testing.T) {
	o, _ := newOrch(t)
	h1 := addHost(t, o, "h1", 0)
	addHost(t, o, "h2", 0)
	// Fill h1 partially so h2 has more headroom.
	if _, _, err := o.PlaceNow(policy.IDS, 0); err != nil {
		t.Fatal(err)
	}
	// The IDS went to one host; the next instance must go to the other.
	first := h1.NumInstances()
	id, err := o.Launch(policy.NAT, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := o.HostOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if first == 1 && h.Name() != "h2" {
		t.Fatalf("second instance placed on %s; want the emptier host", h.Name())
	}
	if first == 0 && h.Name() != "h1" {
		t.Fatalf("second instance placed on %s; want the emptier host", h.Name())
	}
}

func TestPlaceNowIsImmediate(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h1", 2)
	inst, h, err := o.PlaceNow(policy.Proxy, 2)
	if err != nil {
		t.Fatalf("PlaceNow: %v", err)
	}
	if inst.State() != vnf.StateRunning {
		t.Fatal("PlaceNow must return a running instance")
	}
	if h.Name() != "h1" {
		t.Fatal("host wrong")
	}
	if _, _, err := o.PlaceNow(policy.NF(0), 2); err == nil {
		t.Fatal("unknown NF should fail")
	}
	if _, _, err := o.PlaceNow(policy.Proxy, 9); err == nil {
		t.Fatal("no-host switch should fail")
	}
}

func TestReconfigureIdleFastPath(t *testing.T) {
	o, clock := newOrch(t)
	addHost(t, o, "h1", 0)
	// A running idle NAT (ClickOS) is available for repurposing.
	inst, _, err := o.PlaceNow(policy.NAT, 0)
	if err != nil {
		t.Fatal(err)
	}
	var readyAt time.Duration
	id, err := o.ReconfigureIdle(policy.Firewall, 0, func(i *vnf.Instance, h *host.Host) {
		readyAt = clock.Now()
	}, nil)
	if err != nil {
		t.Fatalf("ReconfigureIdle: %v", err)
	}
	if id != inst.ID() {
		t.Fatalf("reconfigured %s, want %s", id, inst.ID())
	}
	if inst.NF() != policy.Firewall {
		t.Fatal("NF not changed")
	}
	clock.Run(0)
	if readyAt != 30*time.Millisecond {
		t.Fatalf("reconfigure completed at %v, want 30ms", readyAt)
	}
}

func TestReconfigureIdleConstraints(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h1", 0)
	// Full-VM NFs cannot be targets.
	if _, err := o.ReconfigureIdle(policy.IDS, 0, nil, nil); err == nil {
		t.Fatal("IDS is not ClickOS; must fail")
	}
	// No instances at all.
	if _, err := o.ReconfigureIdle(policy.Firewall, 0, nil, nil); err == nil {
		t.Fatal("no idle instance should fail")
	}
	// A busy ClickOS instance must not be repurposed.
	inst, _, err := o.PlaceNow(policy.NAT, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetOffered(100); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReconfigureIdle(policy.Firewall, 0, nil, nil); err == nil {
		t.Fatal("busy instance must not be reconfigured")
	}
	// Same-type idle instance is not a reconfiguration target either.
	if err := inst.SetOffered(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReconfigureIdle(policy.NAT, 0, nil, nil); err == nil {
		t.Fatal("same-NF reconfigure should fail")
	}
}

func TestCancelReleasesResources(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h1", 0)
	inst, _, err := o.PlaceNow(policy.IDS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Available(0).Cores != 56 {
		t.Fatalf("cores = %d", o.Available(0).Cores)
	}
	if err := o.Cancel(inst.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if o.Available(0).Cores != 64 {
		t.Fatalf("cores after cancel = %d, want 64", o.Available(0).Cores)
	}
	if inst.State() != vnf.StateStopped {
		t.Fatal("cancelled instance should be stopped")
	}
	if err := o.Cancel(inst.ID()); err == nil {
		t.Fatal("double cancel should fail")
	}
	if len(o.Instances()) != 0 {
		t.Fatal("instance registry not cleaned")
	}
}

func TestCancelWhileBooting(t *testing.T) {
	o, clock := newOrch(t)
	addHost(t, o, "h1", 0)
	fired := false
	var failErr error
	id, err := o.Launch(policy.Firewall, 0,
		func(*vnf.Instance, *host.Host) { fired = true },
		func(_ vnf.ID, err error) { failErr = err })
	if err != nil {
		t.Fatal(err)
	}
	if !o.InFlight(id) {
		t.Fatal("booting instance should be in flight")
	}
	if err := o.Cancel(id); err != nil {
		t.Fatalf("Cancel while booting: %v", err)
	}
	clock.Run(0)
	if fired {
		t.Fatal("onReady fired for a cancelled instance")
	}
	// The callback contract still holds: onFail reports the abort so the
	// caller can release any pending slot keyed to this launch.
	if !errors.Is(failErr, ErrAborted) {
		t.Fatalf("onFail got %v, want ErrAborted", failErr)
	}
	if o.InFlight(id) {
		t.Fatal("in-flight flag should clear once the callback fires")
	}
}

func TestTotalUsed(t *testing.T) {
	o, _ := newOrch(t)
	addHost(t, o, "h1", 0)
	addHost(t, o, "h2", 1)
	if _, _, err := o.PlaceNow(policy.Firewall, 0); err != nil { // 4 cores
		t.Fatal(err)
	}
	if _, _, err := o.PlaceNow(policy.NAT, 1); err != nil { // 2 cores
		t.Fatal(err)
	}
	if got := o.TotalUsed().Cores; got != 6 {
		t.Fatalf("TotalUsed cores = %d, want 6", got)
	}
	ids := o.Instances()
	if len(ids) != 2 {
		t.Fatalf("Instances = %v", ids)
	}
}

func TestLatenciesAccessor(t *testing.T) {
	o, _ := newOrch(t)
	if o.Latencies() != DefaultLatencies() {
		t.Fatal("Latencies accessor lost configuration")
	}
}
