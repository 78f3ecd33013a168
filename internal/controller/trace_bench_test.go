package controller

import (
	"testing"

	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// benchTracedController builds a controller with a journal attached, for
// the traced benchmark arm.
func benchTracedController(tb testing.TB, g *topology.Graph) (*Controller, *trace.Recorder) {
	tb.Helper()
	clock := sim.New()
	rec, err := trace.NewRecorder(clock, 1<<16)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(Config{Topology: g, Clock: clock, Seed: 7, Tracer: rec})
	if err != nil {
		tb.Fatal(err)
	}
	return c, rec
}

// BenchmarkFlowSetupTrace compares the batch flow-setup pipeline with
// tracing disabled (nil recorder, the default) and enabled. Allocations
// are reported for both arms; the disabled arm's instrumentation cost is
// pinned at zero by TestTracingDisabledAddsNoAllocs.
func BenchmarkFlowSetupTrace(b *testing.B) {
	g, classes := benchWorkload(b)

	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := benchController(b, g)
			b.StartTimer()
			if err := c.AddClassBatch(classes, BatchOptions{}); err != nil {
				b.Fatalf("AddClassBatch: %v", err)
			}
		}
	})

	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, _ := benchTracedController(b, g)
			b.StartTimer()
			if err := c.AddClassBatch(classes, BatchOptions{}); err != nil {
				b.Fatalf("AddClassBatch: %v", err)
			}
		}
	})
}

// TestTracingDisabledAddsNoAllocs pins the acceptance bar for the
// observability layer: with no recorder attached, the instrumentation on
// the flow-setup hot path — the Enabled guard plus the event-building
// and span code behind it — must allocate nothing. The closure below is
// exactly the guarded emission shape the install pipeline and
// AddClassBatch use, run against the controller's real (nil) tracer field.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	g, _ := benchWorkload(t)
	c := benchController(t, g)
	if c.tracer.Enabled() {
		t.Fatal("controller without a Tracer config should have tracing disabled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if c.tracer.Enabled() {
			c.tracer.Emit(trace.Ev(trace.KindFlowAdmit).WithClass(3).WithVal(2))
			c.tracer.Emit(trace.Ev(trace.KindFlowPlace).WithClass(3).WithSub(0).WithPos(1).WithNode(4).WithInst("i"))
			c.tracer.Emit(trace.Ev(trace.KindFlowTag).WithClass(3).WithSub(0).WithVal(7))
			sp := c.tracer.Begin(trace.Ev(trace.KindFlowBatch).WithVal(9))
			sp.End(0, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per flow-setup emission block, want 0", allocs)
	}

	// The traced controller must actually record — the guard above is
	// meaningful only if the same code path emits when enabled.
	tc, rec := benchTracedController(t, g)
	if !tc.tracer.Enabled() {
		t.Fatal("controller with a Tracer config should have tracing enabled")
	}
	_, classes := benchWorkload(t)
	if err := tc.AddClassBatch(classes[:4], BatchOptions{}); err != nil {
		t.Fatalf("AddClassBatch: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced flow setup journaled nothing")
	}
}
