package vnf

import (
	"math"
	"testing"

	"github.com/apple-nfv/apple/internal/policy"
)

func newRunning(t *testing.T, nf policy.NF) *Instance {
	t.Helper()
	i, err := New("test@sw", nf)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := i.SetState(StateRunning); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	return i
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", policy.Firewall); err == nil {
		t.Error("empty ID should fail")
	}
	if _, err := New("x", policy.NF(99)); err == nil {
		t.Error("unknown NF should fail")
	}
	i, err := New("fw-1@sw2", policy.Firewall)
	if err != nil {
		t.Fatal(err)
	}
	if i.ID() != "fw-1@sw2" || i.NF() != policy.Firewall || i.State() != StateBooting {
		t.Fatalf("instance = %+v", i)
	}
	if i.Spec().CapacityMbps != 900 {
		t.Fatal("spec not loaded from catalogue")
	}
}

func TestStateTransitions(t *testing.T) {
	i, err := New("x", policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.SetState(StateRunning); err != nil {
		t.Fatalf("Booting→Running: %v", err)
	}
	if err := i.SetState(StateBooting); err == nil {
		t.Fatal("Running→Booting should fail")
	}
	if err := i.SetState(StateStopped); err != nil {
		t.Fatalf("Running→Stopped: %v", err)
	}
	if err := i.SetState(StateRunning); err == nil {
		t.Fatal("Stopped→Running should fail")
	}
	j, err := New("y", policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetState(StateStopped); err != nil {
		t.Fatalf("Booting→Stopped: %v", err)
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{StateBooting, StateRunning, StateStopped} {
		if s.String() == "" {
			t.Errorf("state %d empty name", s)
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state should render")
	}
}

func TestReconfigure(t *testing.T) {
	fw := newRunning(t, policy.Firewall) // ClickOS
	if err := fw.Reconfigure(policy.NAT); err != nil {
		t.Fatalf("ClickOS→ClickOS reconfigure: %v", err)
	}
	if fw.NF() != policy.NAT {
		t.Fatal("reconfigure did not change NF")
	}
	if err := fw.Reconfigure(policy.IDS); err == nil {
		t.Fatal("reconfiguring into a full-VM NF should fail")
	}
	if err := fw.Reconfigure(policy.NF(9)); err == nil {
		t.Fatal("unknown NF should fail")
	}
	ids := newRunning(t, policy.IDS) // full VM
	if err := ids.Reconfigure(policy.Firewall); err == nil {
		t.Fatal("full-VM instance should not reconfigure")
	}
}

func TestLossCurveFig6Shape(t *testing.T) {
	mon := newRunning(t, policy.Firewall) // capacity 900 Mbps
	// Below the knee: zero loss.
	for _, rate := range []float64{0, 100, 500, 899.9} {
		if err := mon.SetOffered(rate); err != nil {
			t.Fatal(err)
		}
		if got := mon.LossRate(); got != 0 {
			t.Fatalf("loss at %v Mbps = %v, want 0", rate, got)
		}
	}
	// At and past the knee: loss soars monotonically toward 1.
	prev := -1.0
	for _, rate := range []float64{900, 1000, 1800, 9000} {
		if err := mon.SetOffered(rate); err != nil {
			t.Fatal(err)
		}
		got := mon.LossRate()
		if got < prev {
			t.Fatalf("loss not monotone: %v after %v", got, prev)
		}
		prev = got
	}
	if err := mon.SetOffered(1800); err != nil {
		t.Fatal(err)
	}
	if got := mon.LossRate(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("loss at 2× capacity = %v, want 0.5", got)
	}
}

func TestBootingInstanceLosesEverything(t *testing.T) {
	i, err := New("boot", policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.SetOffered(100); err != nil {
		t.Fatal(err)
	}
	if i.LossRate() != 1 {
		t.Fatalf("booting instance: loss=%v, want 1", i.LossRate())
	}
	if err := i.SetOffered(0); err != nil {
		t.Fatal(err)
	}
	if i.LossRate() != 0 {
		t.Fatal("zero offered should be zero loss even when booting")
	}
}

func TestSetOfferedValidation(t *testing.T) {
	i := newRunning(t, policy.Proxy)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := i.SetOffered(bad); err == nil {
			t.Errorf("SetOffered(%v) should fail", bad)
		}
	}
}

func TestDetectorHysteresisFig9(t *testing.T) {
	// The paper's passive monitor: overloaded above 8.5 Kpps, rollback at
	// ≤4 Kpps.
	d, err := NewDetector(8500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Observe(1000) {
		t.Fatal("1 Kpps should be normal")
	}
	if !d.Observe(10000) {
		t.Fatal("10 Kpps should trip overload immediately")
	}
	// Dropping into the hysteresis band keeps the overload verdict.
	if !d.Observe(6000) {
		t.Fatal("6 Kpps inside the band must keep overloaded")
	}
	// Only at or below Low does it roll back.
	if d.Observe(4000) {
		t.Fatal("4 Kpps should roll back to normal")
	}
	if d.Observe(6000) {
		t.Fatal("6 Kpps from normal must stay normal (band)")
	}
	high, low := d.Thresholds()
	if high != 8500 || low != 4000 {
		t.Fatal("thresholds lost")
	}
	if d.Overloaded() {
		t.Fatal("final state should be normal")
	}
}

func TestDetectorValidation(t *testing.T) {
	cases := [][2]float64{{0, 0}, {-1, -2}, {5, 5}, {5, 9}}
	for _, c := range cases {
		if _, err := NewDetector(c[0], c[1]); err == nil {
			t.Errorf("NewDetector(%v,%v) should fail", c[0], c[1])
		}
	}
}

func TestDefaultDetector(t *testing.T) {
	d := DefaultDetector(900)
	high, low := d.Thresholds()
	if high <= low || high > 900 {
		t.Fatalf("default thresholds = %v/%v", high, low)
	}
}

// TestInstanceDetector: every new instance carries a detector that is not
// overloaded, with DefaultDetector's thresholds for its NF's capacity.
func TestInstanceDetector(t *testing.T) {
	for _, spec := range policy.Catalogue() {
		i, err := New("x", spec.NF)
		if err != nil {
			t.Fatal(err)
		}
		want := DefaultDetector(spec.CapacityMbps)
		det := i.Detector()
		if det.Overloaded() {
			t.Errorf("new %v instance starts overloaded", spec.NF)
		}
		high, low := det.Thresholds()
		if wantHigh, wantLow := want.Thresholds(); high != wantHigh || low != wantLow {
			t.Errorf("new %v instance: thresholds %v/%v, want %v/%v", spec.NF, high, low, wantHigh, wantLow)
		}
		if !det.Observe(spec.CapacityMbps+1) || !i.Detector().Overloaded() {
			t.Errorf("%v: Detector does not return the instance's own detector", spec.NF)
		}
	}
}

// TestReconfigureResetsDetector: an overloaded ClickOS instance
// reconfigured into another ClickOS NF starts over with that NF's
// thresholds, not overloaded; a refused reconfiguration leaves the
// detector as it was.
func TestReconfigureResetsDetector(t *testing.T) {
	fw := newRunning(t, policy.Firewall)
	if !fw.Detector().Observe(fw.Spec().CapacityMbps + 1) {
		t.Fatal("the firewall's detector did not trip above capacity")
	}
	if err := fw.Reconfigure(policy.IDS); err == nil {
		t.Fatal("reconfiguring into a full-VM NF should fail")
	}
	if !fw.Detector().Overloaded() {
		t.Fatal("a refused reconfiguration reset the detector")
	}
	if err := fw.Reconfigure(policy.NAT); err != nil {
		t.Fatal(err)
	}
	nat, err := policy.SpecOf(policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultDetector(nat.CapacityMbps)
	det := fw.Detector()
	if det.Overloaded() {
		t.Error("the reconfigured instance is still overloaded")
	}
	high, low := det.Thresholds()
	if wantHigh, wantLow := want.Thresholds(); high != wantHigh || low != wantLow {
		t.Errorf("reconfigured into NAT: thresholds %v/%v, want %v/%v", high, low, wantHigh, wantLow)
	}
}

func TestFailedTransitions(t *testing.T) {
	// Booting → Failed (boot dies or the host crashes mid-boot).
	i, err := New("x", policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.SetState(StateFailed); err != nil {
		t.Fatalf("Booting→Failed: %v", err)
	}
	// Failed is terminal.
	for _, s := range []State{StateBooting, StateRunning, StateStopped, StateFailed} {
		if err := i.SetState(s); err == nil {
			t.Fatalf("Failed→%v should fail", s)
		}
	}
	// Running → Failed (host crash).
	j := newRunning(t, policy.NAT)
	if err := j.SetState(StateFailed); err != nil {
		t.Fatalf("Running→Failed: %v", err)
	}
	// Stopped is also terminal: a cancelled instance cannot fail again.
	k := newRunning(t, policy.NAT)
	if err := k.SetState(StateStopped); err != nil {
		t.Fatal(err)
	}
	if err := k.SetState(StateFailed); err == nil {
		t.Fatal("Stopped→Failed should fail")
	}
	if StateFailed.String() == "" {
		t.Fatal("StateFailed has no name")
	}
}
