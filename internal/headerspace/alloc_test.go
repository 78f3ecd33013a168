package headerspace

import (
	"runtime"
	"testing"
)

// TestClassifierAllocs: a fresh Space and a classifier over 300 disjoint
// /20 source prefixes, the class plan of the AS-3679 problem the
// end-to-end benchmark classifies every lifecycle, allocate at most
// 1.6 MB (10⁶ B). Measured 1.17 MB over 24 318 BDD nodes; with the store's
// unique table and Apply memo in Go maps it was 3.51 MB, and with its node
// arena grown by append (scratch mutation) it is 1.76 MB.
func TestClassifierAllocs(t *testing.T) {
	const n, limitMB = 300, 1.6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := NewSpace()
	preds := make([]Predicate, n)
	for i := range preds {
		var err error
		if preds[i], err = sp.Prefix(FieldSrcIP, 10<<24|uint32(i)<<12, 20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewClassifier(sp, preds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%d prefixes: %d BDD nodes, %.2f MB allocated", n, sp.store.Size(), mb)
	if mb > limitMB {
		t.Fatalf("a Space and classifier over %d prefixes allocated %.2f MB; the limit is %.1f MB", n, mb, limitMB)
	}
}
