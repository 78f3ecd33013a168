package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/apple-nfv/apple/internal/trace"
)

// TestChurnTraceAuditTrail is the observability acceptance check: a
// traced churn replay must produce a journal from which the full audit
// trail of a failed-over class — admission, LP placement, tag
// assignment, installed path, failover transitions, rollback — can be
// reconstructed, and the journal must survive a JSONL round trip.
func TestChurnTraceAuditTrail(t *testing.T) {
	cfg := ChurnConfig{Seed: 7, Probe: true, TraceCapacity: 1 << 14}
	r := mustChurn(t, cfg)
	if r.EnforceErr != nil {
		t.Fatalf("enforcement broken in traced replay: %v", r.EnforceErr)
	}
	if len(r.Journal) == 0 {
		t.Fatal("traced replay produced an empty journal")
	}

	// JSONL round trip: the on-disk artifact decodes back to the exact
	// in-memory journal.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, r.Journal); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	decoded, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(decoded, r.Journal) {
		t.Fatalf("JSONL round trip changed the journal: %d events in, %d out", len(r.Journal), len(decoded))
	}

	// Reconstruct class 0's audit trail from the decoded journal — the
	// artifact, not the live recorder, is what an operator would have.
	audit, err := trace.ReconstructFlow(decoded, 0)
	if err != nil {
		t.Fatalf("ReconstructFlow: %v", err)
	}
	if audit.Admit.Kind != trace.KindFlowAdmit {
		t.Fatalf("audit has no admission event: %+v", audit.Admit)
	}
	if len(audit.Placements) == 0 || len(audit.Tags) == 0 || len(audit.Installs) == 0 {
		t.Fatalf("audit missing setup stages: %d placements, %d tags, %d installs",
			len(audit.Placements), len(audit.Tags), len(audit.Installs))
	}
	// The installed path is the class's flow.emit plus the table installs
	// of its pipeline run: one flow.apply per device table, no class.
	installs := make(map[trace.Kind]int)
	for _, ev := range audit.Installs {
		installs[ev.Kind]++
		if ev.Kind == trace.KindFlowApply && (ev.Class != trace.NoID || ev.Node == trace.NoID) {
			t.Fatalf("flow.apply must name a switch and no class: %+v", ev)
		}
	}
	if installs[trace.KindFlowEmit] == 0 || installs[trace.KindFlowApply] == 0 {
		t.Fatalf("audit installs lack an emit or its table installs: %v", installs)
	}
	// Every transaction opens exactly once before it commits or unwinds.
	open := false
	for _, ev := range decoded {
		switch ev.Kind {
		case trace.KindTxnBegin:
			if open {
				t.Fatalf("seq %d: txn.begin inside an open transaction", ev.Seq)
			}
			open = true
		case trace.KindTxnCommit, trace.KindTxnUnwind:
			if !open {
				t.Fatalf("seq %d: %s without a txn.begin", ev.Seq, ev.Kind)
			}
			open = false
		}
	}
	if len(audit.Solves) == 0 {
		t.Fatal("audit has no LP solve events")
	}
	if !audit.FailedOver() {
		t.Fatal("default churn config should drive class 0 through failover")
	}
	kinds := make(map[trace.Kind]int)
	for _, ev := range audit.Failovers {
		kinds[ev.Kind]++
	}
	for _, want := range []trace.Kind{trace.KindFailoverSpawn, trace.KindFailoverActivate, trace.KindFailoverRollback} {
		if kinds[want] == 0 {
			t.Errorf("audit has no %s transition; failover kinds: %v", want, kinds)
		}
	}
	if len(audit.Lifecycle) == 0 {
		t.Fatal("audit has no VNF lifecycle events for the class's instances")
	}
	if len(audit.Instances()) < 2 {
		t.Fatalf("failed-over class should have seen >=2 instances, got %v", audit.Instances())
	}

	// The timeline is sequence-ordered, and virtual time never runs
	// backwards along it.
	timeline := audit.Timeline()
	for i := 1; i < len(timeline); i++ {
		if timeline[i].Seq <= timeline[i-1].Seq {
			t.Fatalf("timeline out of order at %d: seq %d after %d", i, timeline[i].Seq, timeline[i-1].Seq)
		}
		if timeline[i].At < timeline[i-1].At {
			t.Fatalf("virtual time ran backwards at %d: %v after %v", i, timeline[i].At, timeline[i-1].At)
		}
	}
	if audit.String() == "" {
		t.Fatal("audit renders empty")
	}
}

// TestChurnTraceDeterminism: two replays of the same traced config must
// journal identical event sequences, and attaching the journal must not
// perturb the replay itself — the untraced trace lines stay
// byte-identical.
func TestChurnTraceDeterminism(t *testing.T) {
	cfg := ChurnConfig{Seed: 7, Probe: true, TraceCapacity: 1 << 14}
	first := mustChurn(t, cfg)
	second := mustChurn(t, cfg)
	if !reflect.DeepEqual(first.Journal, second.Journal) {
		t.Fatalf("journal not deterministic: %d vs %d events", len(first.Journal), len(second.Journal))
	}
	untraced := mustChurn(t, ChurnConfig{Seed: 7, Probe: true})
	if got, want := first.TraceString(), untraced.TraceString(); got != want {
		t.Fatalf("tracing perturbed the replay:\n--- traced\n%s\n--- untraced\n%s", got, want)
	}
	if untraced.Journal != nil || untraced.Metrics != nil {
		t.Fatal("untraced replay should carry no journal or metrics snapshot")
	}
}

// TestChurnTraceMetricsSnapshot: the traced replay's unified registry
// snapshot carries the per-replay counter families and survives a JSON
// round trip.
func TestChurnTraceMetricsSnapshot(t *testing.T) {
	r := mustChurn(t, ChurnConfig{Seed: 7, Probe: true, TraceCapacity: 1 << 14})
	if r.Metrics == nil {
		t.Fatal("traced replay carried no metrics snapshot")
	}
	if len(r.Metrics.Counters["orchestrator"]) == 0 {
		t.Fatal("snapshot missing orchestrator counters")
	}
	if len(r.Metrics.Counters["handler"]) == 0 {
		t.Fatal("snapshot missing handler counters")
	}
	if _, ok := r.Metrics.LP["lp"]; !ok {
		t.Fatal("snapshot missing LP family")
	}
	if _, ok := r.Metrics.FlowSetup["flow_setup"]; !ok {
		t.Fatal("snapshot missing flow-setup family")
	}
	if got, ok := r.Metrics.Gauges["extra_cores"]; !ok || got != float64(r.FinalExtraCores) {
		t.Fatalf("extra_cores gauge = %v (present=%v), want %d", got, ok, r.FinalExtraCores)
	}
	if got := r.Metrics.Gauges["peak_extra_cores"]; got != float64(r.PeakExtraCores) {
		t.Fatalf("peak_extra_cores gauge = %v, want %d", got, r.PeakExtraCores)
	}

	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back struct {
		Counters map[string]map[string]uint64 `json:"counters"`
		Gauges   map[string]float64           `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot artifact is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back.Counters, r.Metrics.Counters) {
		t.Fatal("counter families changed across the JSON round trip")
	}
}
