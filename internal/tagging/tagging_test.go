package tagging

import (
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// TestAllocatorExhaustion walks the whole host-tag space: MaxHostTag
// distinct hosts get tags 1..MaxHostTag in order, none a sentinel, a
// repeat lookup returns the same tag even when the space is full, and the
// next new host is refused.
func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < int(flowtable.MaxHostTag); i++ {
		tag, err := a.HostTag(topology.NodeID(i))
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		if want := uint16(i + 1); tag != want {
			t.Fatalf("HostTag(%d) = %d, want %d", i, tag, want)
		}
		if tag == flowtable.HostTagEmpty || tag == flowtable.HostTagFin {
			t.Fatalf("HostTag(%d) = %d collides with a sentinel", i, tag)
		}
	}
	if tag, err := a.HostTag(5); err != nil || tag != 6 {
		t.Fatalf("re-allocation changed tag: %d, %v", tag, err)
	}
	_, err := a.HostTag(topology.NodeID(99999))
	if err == nil {
		t.Fatal("exhausted allocator should refuse a new host")
	}
	if msg := err.Error(); !strings.Contains(msg, "99999") || !strings.Contains(msg, "4094") {
		t.Fatalf("refusal %q should name the host and the size of the space", msg)
	}
}

func TestSubTag(t *testing.T) {
	tag, err := SubTag(63)
	if err != nil || tag != 63 {
		t.Fatalf("SubTag(63) = %v, %v", tag, err)
	}
	if _, err := SubTag(64); err == nil {
		t.Fatal("SubTag(64) should fail")
	}
	if _, err := SubTag(-1); err == nil {
		t.Fatal("SubTag(-1) should fail")
	}
}

// spec builds a simple 4-hop class with the given sub-class split.
func spec(id int, pathLen int, portions []float64) ClassSpec {
	path := make([]topology.NodeID, pathLen)
	for i := range path {
		path[i] = topology.NodeID(100*id + i)
	}
	subs := make([]core.Subclass, len(portions))
	for i, p := range portions {
		subs[i] = core.Subclass{Portion: p, Hops: []int{i % pathLen}}
	}
	return ClassSpec{
		Class: core.Class{
			ID:    core.ClassID(id),
			Path:  path,
			Chain: policy.Chain{policy.Firewall},
		},
		Prefix:     flowtable.Prefix{Addr: uint32(id) << 24, Len: 8},
		Subclasses: subs,
	}
}

func TestClassSpecValidate(t *testing.T) {
	good := spec(1, 4, []float64{0.5, 0.5})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	empty := good
	empty.Subclasses = nil
	if err := empty.Validate(); err == nil {
		t.Error("no sub-classes should fail")
	}
	badHop := spec(1, 2, []float64{1})
	badHop.Subclasses[0].Hops = []int{7}
	if err := badHop.Validate(); err == nil {
		t.Error("out-of-path hop should fail")
	}
	badSum := spec(1, 2, []float64{0.5, 0.2})
	if err := badSum.Validate(); err == nil {
		t.Error("portions not summing to 1 should fail")
	}
	many := make([]float64, 65)
	for i := range many {
		many[i] = 1.0 / 65
	}
	if err := spec(1, 65, many).Validate(); err == nil {
		t.Error("more sub-classes than tag values should fail")
	}
}

func TestCountTCAMSingleClass(t *testing.T) {
	// One class, 4-hop path, one 100% sub-class processed at hop 1.
	cs := spec(1, 4, []float64{1})
	cs.Subclasses[0].Hops = []int{1}
	u, err := CountTCAM([]ClassSpec{cs}, 6)
	if err != nil {
		t.Fatalf("CountTCAM: %v", err)
	}
	// Tagged: 1 classification at ingress + 1 host-match + 4 pass-by = 6.
	if u.Tagged != 6 {
		t.Fatalf("Tagged = %d, want 6", u.Tagged)
	}
	// Untagged: 1 rule × (4 switches + 1 chain stage) = 5.
	if u.Untagged != 5 {
		t.Fatalf("Untagged = %d, want 5", u.Untagged)
	}
	if u.PerSwitchTagged[cs.Class.Path[0]] != 2 { // classification + pass-by
		t.Fatalf("per-switch = %v", u.PerSwitchTagged)
	}
}

func TestCountTCAMReductionGrowsWithClasses(t *testing.T) {
	// With many classes sharing a network, the host-match and pass-by
	// rules amortize and the ratio approaches the mean path length.
	sharedPath := []topology.NodeID{0, 1, 2, 3, 4}
	var classes []ClassSpec
	for i := 0; i < 50; i++ {
		cs := spec(i, 5, []float64{0.5, 0.25, 0.25})
		cs.Class.Path = sharedPath
		classes = append(classes, cs)
	}
	u, err := CountTCAM(classes, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r := u.Ratio(); r < 4 {
		t.Fatalf("ratio = %v, want ≥4 on 5-hop paths (the paper's bound)", r)
	}
}

func TestCountTCAMMultipathBoost(t *testing.T) {
	// The same class with an extra ECMP path must cost more untagged
	// rules (classification repeated on the alternate path's switches)
	// but identical tagged rules — the UNIV1 effect of Fig 10.
	single := spec(1, 3, []float64{1})
	multi := spec(1, 3, []float64{1})
	multi.AltPaths = [][]topology.NodeID{{
		multi.Class.Path[0], topology.NodeID(999), multi.Class.Path[2],
	}}
	us, err := CountTCAM([]ClassSpec{single}, 6)
	if err != nil {
		t.Fatal(err)
	}
	um, err := CountTCAM([]ClassSpec{multi}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if um.Untagged <= us.Untagged {
		t.Fatalf("multipath untagged %d should exceed single-path %d", um.Untagged, us.Untagged)
	}
	// Classification stays at the ingress: tagged only grows by the
	// alternate switch's pass-by entry.
	if um.Tagged != us.Tagged+1 {
		t.Fatalf("multipath tagged %d, want %d", um.Tagged, us.Tagged+1)
	}
	if um.Ratio() <= us.Ratio() {
		t.Fatalf("multipath ratio %v should beat single-path %v", um.Ratio(), us.Ratio())
	}
}

func TestCountTCAMEmptyAndInvalid(t *testing.T) {
	if _, err := CountTCAM(nil, 6); err == nil {
		t.Error("no classes should fail")
	}
	bad := spec(1, 2, []float64{0.5, 0.1})
	if _, err := CountTCAM([]ClassSpec{bad}, 6); err == nil {
		t.Error("invalid spec should fail")
	}
	good := spec(1, 2, []float64{1})
	if _, err := CountTCAM([]ClassSpec{good}, 0); err == nil {
		t.Error("zero split bits should fail")
	}
}

func TestUsageRatio(t *testing.T) {
	if (Usage{Tagged: 0, Untagged: 10}).Ratio() != 0 {
		t.Error("zero tagged should yield ratio 0, not panic")
	}
	if (Usage{Tagged: 5, Untagged: 20}).Ratio() != 4 {
		t.Error("ratio arithmetic wrong")
	}
}

func TestCrossProductPenalty(t *testing.T) {
	merged, pipelined, err := CrossProductPenalty(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 500 || pipelined != 60 {
		t.Fatalf("penalty = %d/%d", merged, pipelined)
	}
	if _, _, err := CrossProductPenalty(-1, 5); err == nil {
		t.Fatal("negative counts should fail")
	}
}

// TestTaggingFitsWhereUntaggedOverflows ties the Fig 10 accounting to a
// concrete constraint: with a small per-switch TCAM, the tagged rule set
// installs everywhere while the no-tagging rule count exceeds the budget.
func TestTaggingFitsWhereUntaggedOverflows(t *testing.T) {
	sharedPath := []topology.NodeID{0, 1, 2, 3, 4}
	var classes []ClassSpec
	for i := 0; i < 30; i++ {
		cs := spec(i, 5, []float64{0.5, 0.5})
		cs.Class.Path = sharedPath
		classes = append(classes, cs)
	}
	u, err := CountTCAM(classes, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A budget between the two totals: tagging fits, no-tagging does not.
	budget := (u.Tagged + u.Untagged) / 2
	if u.Tagged > budget {
		t.Fatalf("tagged %d exceeds the %d-entry budget", u.Tagged, budget)
	}
	if u.Untagged <= budget {
		t.Fatalf("untagged %d fits the %d-entry budget; scenario too easy", u.Untagged, budget)
	}
	// The per-switch breakdown concentrates at the ingress (all classes
	// share it here), and even that hot switch stays below what the
	// untagged scheme would put on *every* switch.
	untaggedPerSwitch := u.Untagged / len(sharedPath)
	for v, n := range u.PerSwitchTagged {
		if n >= untaggedPerSwitch {
			t.Fatalf("switch %d uses %d tagged entries, vs %d untagged everywhere",
				v, n, untaggedPerSwitch)
		}
	}
}
