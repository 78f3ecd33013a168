package headerspace

import (
	"runtime"
	"testing"
)

// TestClassifierAllocs: a fresh Space and a classifier over 300 disjoint
// /20 source prefixes, the class plan of the AS-3679 problem the
// end-to-end benchmark classifies every lifecycle, allocate at most
// 0.86 MB (10⁶ B). Measured 0.81 MB over 24 318 BDD nodes, 0.82 MB under
// the race detector; with an Apply cache made at every table doubling
// while the prefixes are built, which run no Apply, it was 0.88 MB. With
// the store's unique table and Apply memo in Go maps it was 3.51 MB, and
// with its node arena grown by append (scratch mutation) 1.76 MB, when
// the figure was 1.17 MB.
func TestClassifierAllocs(t *testing.T) {
	const n, limitMB = 300, 0.86
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
		t.Fatalf("a Space and classifier over %d prefixes allocated %.2f MB; the limit is %.2f MB", n, mb, limitMB)
	}
}

// TestClassifierReservesOnce: NewClassifier sizes the store for the nodes
// it will create (buildNodes), so over the 300 class prefixes the tables
// double at most once after that reservation, and arena, unique table and
// cache take at most 48 bytes a node (4 a slot, 12 a node of the arena's
// 3/4 load, 16 a cache entry of a quarter of the slots). Without the
// reservation (scratch mutation) the store doubles twice, 8 192 → 16 384
// → 32 768 slots.
func TestClassifierReservesOnce(t *testing.T) {
	const n = 300
	sp := NewSpace()
	preds := make([]Predicate, n)
	for i := range preds {
		var err error
		if preds[i], err = sp.Prefix(FieldSrcIP, 10<<24|uint32(i)<<12, 20); err != nil {
			t.Fatal(err)
		}
	}
	_, before := sp.store.Tables()
	if _, err := NewClassifier(sp, preds); err != nil {
		t.Fatal(err)
	}
	slots, after := sp.store.Tables()
	bytes := 4*slots + 12*(slots*3/4+2) + 16*(slots/4)
	t.Logf("%d prefixes: %d nodes, %d slots, %d doublings after the reservation, %d table bytes",
		n, sp.store.Size(), slots, after-before, bytes)
	if after-before > 1 {
		t.Errorf("the store doubled %d times after NewClassifier reserved; the bound is once", after-before)
	}
	if bytes > 48*sp.store.Size() {
		t.Errorf("the tables take %d bytes for %d nodes; the bound is 48 a node", bytes, sp.store.Size())
	}
}
