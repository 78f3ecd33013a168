package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a settable virtual clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(nil, 8); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewRecorder(&fakeClock{}, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	r, err := NewRecorder(&fakeClock{}, 0)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if r.max != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", r.max, DefaultCapacity)
	}
}

func TestEmitStampsAndOrders(t *testing.T) {
	clk := &fakeClock{}
	r, err := NewRecorder(clk, 16)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	clk.now = 5 * time.Second
	r.Emit(Ev(KindFlowAdmit).WithClass(3).WithVal(2))
	clk.now = 7 * time.Second
	r.Emit(Ev(KindFlowTag).WithClass(3).WithSub(0).WithVal(9))
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("bad seqs: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].At != 5*time.Second || evs[1].At != 7*time.Second {
		t.Fatalf("bad stamps: %v, %v", evs[0].At, evs[1].At)
	}
	if evs[0].Class != 3 || evs[0].Sub != NoID || evs[0].Pos != NoID || evs[0].Node != NoID {
		t.Fatalf("Ev defaults not applied: %+v", evs[0])
	}
	if r.Len() != 2 {
		t.Fatalf("len=%d, want 2", r.Len())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r, err := NewRecorder(&fakeClock{}, 4)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	for i := 0; i < 10; i++ {
		r.Emit(Ev(KindFlowAdmit).WithVal(int64(i)))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Val != want {
			t.Fatalf("event %d: val=%d, want %d (oldest evicted first)", i, ev.Val, want)
		}
	}
	// Seq stays global even across eviction.
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("seqs %d..%d, want 6..9", evs[0].Seq, evs[3].Seq)
	}
}

func TestSpanBeginEnd(t *testing.T) {
	clk := &fakeClock{}
	r, err := NewRecorder(clk, 8)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	sp := r.Begin(Ev(KindLPSolve).WithClass(NoID).WithVal(4))
	clk.now = time.Second
	sp.End(123, errors.New("boom"))
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	begin, end := evs[0], evs[1]
	if begin.Phase != PhaseBegin || end.Phase != PhaseEnd {
		t.Fatalf("phases: %q, %q", begin.Phase, end.Phase)
	}
	if begin.Span == 0 || begin.Span != end.Span {
		t.Fatalf("span ids: %d, %d", begin.Span, end.Span)
	}
	if end.Kind != KindLPSolve || end.Val != 123 || end.Err != "boom" {
		t.Fatalf("end event: %+v", end)
	}
	if end.At != time.Second {
		t.Fatalf("end stamped %v, want 1s", end.At)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	r.Emit(Ev(KindFlowAdmit))
	sp := r.Begin(Ev(KindFlowBatch))
	sp.End(1, errors.New("ignored"))
	if r.Events() != nil || r.Len() != 0 {
		t.Fatal("nil recorder retained state")
	}
}

// TestDisabledRecorderZeroAlloc pins the acceptance criterion that
// disabled tracing adds zero allocations on instrumented hot paths: the
// full emit sequence a flow-setup call site runs — event construction,
// Emit, Begin/End — must not allocate on a nil recorder.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			t.Fatal("unexpectedly enabled")
		}
		r.Emit(Ev(KindFlowAdmit).WithClass(7).WithVal(3))
		r.Emit(Ev(KindFlowPlace).WithClass(7).WithSub(0).WithPos(1).WithInst("fw-1@h").WithNode(2))
		sp := r.Begin(Ev(KindFlowBatch).WithVal(90))
		sp.End(42, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per emit sequence, want 0", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	r, err := NewRecorder(clk, 32)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	clk.now = 3 * time.Second
	r.Emit(Ev(KindFlowAdmit).WithClass(0).WithVal(2))
	r.Emit(Ev(KindFlowPlace).WithClass(0).WithSub(1).WithPos(0).WithInst("fw-2@h").WithNode(3))
	sp := r.Begin(Ev(KindFlowBatch).WithVal(1))
	sp.End(10, errors.New("partial"))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, r.Events()) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, r.Events())
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{\"seq\":0}\nnot json\n")); err == nil {
		t.Fatal("garbage journal accepted")
	}
}

func TestReconstructFlow(t *testing.T) {
	clk := &fakeClock{}
	r, err := NewRecorder(clk, 64)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	sp := r.Begin(Ev(KindLPSolve))
	sp.End(17, nil)
	r.Emit(Ev(KindFlowAdmit).WithClass(0).WithVal(1))
	r.Emit(Ev(KindFlowPlace).WithClass(0).WithSub(0).WithPos(0).WithInst("fw-1@h0").WithNode(0))
	r.Emit(Ev(KindFlowTag).WithClass(0).WithSub(0).WithVal(1))
	r.Emit(Ev(KindFlowEmit).WithClass(0).WithVal(12))
	r.Emit(Ev(KindFlowApply).WithNode(0).WithVal(12))
	// Another class's events — its run's table installs included — must
	// not leak into class 0's audit.
	r.Emit(Ev(KindFlowAdmit).WithClass(1).WithVal(1))
	r.Emit(Ev(KindFlowPlace).WithClass(1).WithSub(0).WithPos(0).WithInst("fw-9@h9").WithNode(9))
	r.Emit(Ev(KindFlowEmit).WithClass(1).WithVal(5))
	r.Emit(Ev(KindFlowApply).WithNode(9).WithVal(5))
	clk.now = 6 * time.Second
	r.Emit(Ev(KindFailoverSpawn).WithClass(0).WithSub(0).WithPos(0).WithInst("fw-2@h1").WithNode(1).WithVal(1))
	r.Emit(Ev(KindVNFLaunch).WithInst("fw-2@h1").WithNode(1))
	clk.now = 10 * time.Second
	r.Emit(Ev(KindVNFBoot).WithInst("fw-2@h1"))
	r.Emit(Ev(KindFailoverActivate).WithClass(0).WithSub(1).WithInst("fw-2@h1"))
	clk.now = 13 * time.Second
	r.Emit(Ev(KindFailoverRollback).WithClass(0).WithVal(1))
	r.Emit(Ev(KindVNFCancel).WithInst("fw-2@h1"))

	a, err := ReconstructFlow(r.Events(), 0)
	if err != nil {
		t.Fatalf("ReconstructFlow: %v", err)
	}
	if a.Admit.Kind != KindFlowAdmit || a.Admit.Class != 0 {
		t.Fatalf("bad admit: %+v", a.Admit)
	}
	if len(a.Placements) != 1 || a.Placements[0].Inst != "fw-1@h0" {
		t.Fatalf("placements: %+v", a.Placements)
	}
	if len(a.Tags) != 1 || a.Tags[0].Val != 1 {
		t.Fatalf("tags: %+v", a.Tags)
	}
	if len(a.Installs) != 2 {
		t.Fatalf("installs: %+v", a.Installs)
	}
	if !a.FailedOver() || len(a.Failovers) != 3 {
		t.Fatalf("failovers: %+v", a.Failovers)
	}
	// Lifecycle covers only the class's instances: the failover spawn's
	// launch/boot/cancel, not class 1's.
	if len(a.Lifecycle) != 3 {
		t.Fatalf("lifecycle: %+v", a.Lifecycle)
	}
	if got := a.Instances(); !reflect.DeepEqual(got, []string{"fw-1@h0", "fw-2@h1"}) {
		t.Fatalf("instances: %v", got)
	}
	if len(a.Solves) != 2 {
		t.Fatalf("solves: %+v", a.Solves)
	}
	// Timeline is seq-ordered and complete.
	tl := a.Timeline()
	if len(tl) != 2+1+1+1+2+3+3 {
		t.Fatalf("timeline has %d events", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Seq <= tl[i-1].Seq {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	if a.String() == "" {
		t.Fatal("empty audit rendering")
	}
	if _, err := ReconstructFlow(r.Events(), 42); err == nil {
		t.Fatal("audit of unknown class succeeded")
	}
}
