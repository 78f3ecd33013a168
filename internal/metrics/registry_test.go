package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestRegistrySnapshotAndNames(t *testing.T) {
	reg := NewRegistry()
	orch := NewCounters()
	orch.Add("launches", 3)
	orch.Inc("boots")
	if err := reg.AddCounters("orchestrator", orch); err != nil {
		t.Fatal(err)
	}
	var lp LPCounters
	lp.RecordSolve(false, false, 10, 20, 0, time.Millisecond, 2*time.Millisecond)
	if err := reg.AddLP("lp", &lp); err != nil {
		t.Fatal(err)
	}
	var fs FlowSetupCounters
	fs.Arrivals.Add(7)
	if err := reg.AddFlowSetup("flow_setup", &fs); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddGauge("extra_cores", func() float64 { return 4.5 }); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["orchestrator"]["launches"] != 3 || snap.Counters["orchestrator"]["boots"] != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.LP["lp"].Solves != 1 || snap.LP["lp"].Phase2Pivots != 20 {
		t.Fatalf("lp: %+v", snap.LP)
	}
	if snap.FlowSetup["flow_setup"].Arrivals != 7 {
		t.Fatalf("flow setup: %+v", snap.FlowSetup)
	}
	if snap.Gauges["extra_cores"] != 4.5 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
	want := []string{"extra_cores", "flow_setup", "lp", "orchestrator"}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names: %v, want %v", got, want)
	}
}

// TestRegistryJSONRoundTrip: the written artifact must unmarshal back
// into an identical typed snapshot — the trace-smoke contract.
func TestRegistryJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := NewCounters()
	c.Add("rollbacks", 2)
	if err := reg.AddCounters("handler", c); err != nil {
		t.Fatal(err)
	}
	var lp LPCounters
	lp.RecordSolve(true, true, 1, 2, 3, time.Microsecond, time.Millisecond)
	if err := reg.AddLP("lp", &lp); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddGauge("peak", func() float64 { return 17 }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, reg.Snapshot()) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, reg.Snapshot())
	}
	// Determinism: writing twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := reg.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("artifact not deterministic")
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	reg := NewRegistry()
	if err := reg.AddCounters("", NewCounters()); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.AddCounters("x", nil); err == nil {
		t.Fatal("nil counters accepted")
	}
	if err := reg.AddCounters("x", NewCounters()); err != nil {
		t.Fatal(err)
	}
	// Duplicate names are rejected across families, not just within one.
	if err := reg.AddLP("x", &LPCounters{}); err == nil {
		t.Fatal("cross-family duplicate accepted")
	}
	if err := reg.AddGauge("x", func() float64 { return 0 }); err == nil {
		t.Fatal("duplicate gauge accepted")
	}
	if err := reg.AddFlowSetup("y", nil); err == nil {
		t.Fatal("nil flow-setup accepted")
	}
	if err := reg.AddGauge("z", nil); err == nil {
		t.Fatal("nil gauge accepted")
	}
}
