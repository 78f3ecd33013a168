package flowtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// Contracts of incremental publication: a published snapshot is frozen
// for good, Revert restores position as well as membership, and a
// mutation's cost does not grow with the table.

// churnRule is rule i of a table shaped like the controller's: thousands
// of classification rows in one trie tuple, a few dozen host-match rows
// in another, and a handful of one-off shapes that stay slice tuples.
func churnRule(i int) Rule {
	r := Rule{Name: fmt.Sprintf("c%d", i), Actions: []Action{{Type: ActForward, Port: i}}}
	switch {
	case i%16 == 0:
		r.Priority = 300
		r.Match = Match{}.WithHostTag(uint16(i/16) & MaxHostTag)
	case i%16 == 1 && i < 128:
		r.Priority = 10
		r.Match = Match{}.WithProto(uint8(i / 16)).WithDstPort(uint16(i))
	default:
		r.Priority = 200
		r.Match = Match{}.WithHostTag(HostTagEmpty).WithSrc(Prefix{Addr: uint32(i) << 8, Len: 24})
	}
	return r
}

func churnTable(t testing.TB, n int) *Table {
	t.Helper()
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Rule: churnRule(i)}
	}
	tbl := NewTable()
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSnapshotFrozenUnderMutation holds one published snapshot while the
// table goes through ten thousand further mutations and reverts, and
// requires the held snapshot to keep giving exactly the answers it gave
// when it was current. A reader goroutine probes it throughout, so under
// -race any write into a node the snapshot shares with its successors is
// reported even if it happens not to change an answer.
func TestSnapshotFrozenUnderMutation(t *testing.T) {
	const n = 3000
	tbl := churnTable(t, n)
	snap := tbl.compiled.Load()
	pkts := make([]Packet, 0, n+1)
	for i := 0; i < n; i++ {
		pkts = append(pkts, packetFor(churnRule(i).Match, Packet{}))
	}
	pkts = append(pkts, Packet{HostTag: 0xABC}) // matches nothing
	want := make([]*entry, len(pkts))
	for i := range pkts {
		want[i] = snap.lookup(&pkts[i])
	}
	verify := func() error {
		for i := range pkts {
			if got := snap.lookup(&pkts[i]); got != want[i] {
				return fmt.Errorf("held snapshot changed its answer for packet %d: %p, was %p", i, got, want[i])
			}
		}
		return nil
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := verify(); err != nil {
				done <- err
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(3))
	next := n
	for m := 0; m < 10_000; m++ {
		switch rng.Intn(4) {
		case 0:
			if err := tbl.Install(churnRule(next)); err != nil {
				t.Fatal(err)
			}
			next++
		case 1:
			tbl.Remove(fmt.Sprintf("c%d", rng.Intn(next)))
		default:
			ops := []BatchOp{
				{Remove: fmt.Sprintf("c%d", rng.Intn(next))},
				{Rule: churnRule(next)},
			}
			next++
			_, undo, err := tbl.ApplyBatchUndo(ops)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				tbl.Revert(undo)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	// The live table moved on and still agrees with the reference scan.
	for i := range pkts {
		got, ok := tbl.Lookup(pkts[i])
		lin, linOK := tbl.LookupLinear(pkts[i])
		if ok != linOK || !reflect.DeepEqual(got, lin) {
			t.Fatalf("after churn, packet %d: Lookup (%v,%v) != LookupLinear (%v,%v)", i, got.Name, ok, lin.Name, linOK)
		}
	}
}

// TestRevertRestoresPosition removes rules from the middle of an
// equal-priority run (and installs others) in one batch, reverts it, and
// requires Rules() to be identical to the pre-batch list — order
// included — in a slice tuple and in a trie tuple alike.
func TestRevertRestoresPosition(t *testing.T) {
	for _, n := range []int{6, 400} {
		tbl := NewTable()
		for i := 0; i < n; i++ {
			// One priority, one shape, overlapping nowhere: position is
			// only visible through Rules() order and tie-breaks.
			if err := tbl.Install(Rule{Name: fmt.Sprintf("r%d", i), Priority: 7,
				Match:   Match{}.WithHostTag(uint16(i)),
				Actions: []Action{{Type: ActForward, Port: i}}}); err != nil {
				t.Fatal(err)
			}
		}
		// A wide rule installed between two narrow ones that overlap it:
		// its place in the run decides who wins the tie.
		for _, r := range []Rule{
			{Name: "early", Priority: 7, Match: Match{}.WithSubTag(1).WithProto(6), Actions: []Action{{Type: ActForward, Port: 1001}}},
			{Name: "mid", Priority: 7, Match: Match{}.WithProto(6), Actions: []Action{{Type: ActForward, Port: 1002}}},
			{Name: "late", Priority: 7, Match: Match{}.WithSubTag(2).WithProto(6), Actions: []Action{{Type: ActForward, Port: 1003}}},
		} {
			if err := tbl.Install(r); err != nil {
				t.Fatal(err)
			}
		}
		before := tbl.Rules()
		probe := func() [2]string {
			var out [2]string
			for i, sub := range []uint8{1, 2} {
				p := Packet{SubTag: sub, HostTag: 0xF00}
				p.Hdr.Proto = 6
				r, _ := tbl.Lookup(p)
				out[i] = r.Name
			}
			return out
		}
		if got := probe(); got != [2]string{"early", "mid"} {
			t.Fatalf("n=%d: tie-breaks before the batch: %v", n, got)
		}
		_, undo, err := tbl.ApplyBatchUndo([]BatchOp{
			{Remove: fmt.Sprintf("r%d", n/2)},
			{Remove: "mid"},
			{Rule: Rule{Name: "mid", Priority: 7, Match: Match{}.WithProto(6), Actions: []Action{{Type: ActForward, Port: 1004}}}},
			{Remove: fmt.Sprintf("r%d", n/3), Rule: Rule{Name: "fresh", Priority: 7,
				Match: Match{}.WithHostTag(uint16(n + 5)), Actions: []Action{{Type: ActDrop}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := probe(); got != [2]string{"early", "late"} {
			t.Fatalf("n=%d: reinstalled mid should rank after late: %v", n, got)
		}
		if undo.Removed() != 3 {
			t.Fatalf("n=%d: token reports %d removed rules, want 3", n, undo.Removed())
		}
		tbl.Revert(undo)
		if after := tbl.Rules(); !reflect.DeepEqual(after, before) {
			t.Fatalf("n=%d: Rules() after Revert differs from the pre-batch list", n)
		}
		if got := probe(); got != [2]string{"early", "mid"} {
			t.Fatalf("n=%d: tie-breaks after Revert: %v", n, got)
		}
	}
}

// bytesPerOp reports the mean bytes allocated by f over reps calls.
func bytesPerOp(reps int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// TestOneRuleBatchCostIndependentOfTableSize pins O(delta) publication:
// installing one rule into a table and taking it out again allocates at
// most 2.25 KB at 1k rules and 12 KB at 64k (1 926 and 11 052 B measured,
// where 40-byte slots and pages of eight children made it 3 190 and
// 12 324 B); the rebuild-everything publisher this replaced allocated 60
// times that 3 190 B. At both sizes the classification tuple's trie root
// is full and a publication copies one of its pages. The 64k table costs
// more because its level-1 nodes are full of children as well: a key that
// passes through one copies its 64-child kids array, though not its data.
// That is not a shape the benchmark builds (FatTree-16's hottest tables
// hold about 1 300 rules). The ceilings are absolute, not a ratio, so that
// the 1k cost, which is what a class's publications pay, cannot grow
// unseen.
func TestOneRuleBatchCostIndependentOfTableSize(t *testing.T) {
	cost := func(n int) float64 {
		tbl := churnTable(t, n)
		return bytesPerOp(200, func(i int) {
			r := churnRule(n + i)
			_, undo, err := tbl.ApplyBatchUndo([]BatchOp{{Rule: r}})
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				tbl.Revert(undo)
			} else {
				tbl.Remove(r.Name)
			}
		})
	}
	small, large := cost(1_000), cost(64_000)
	t.Logf("one-rule batch + undo: %.0f B at 1k rules, %.0f B at 64k rules", small, large)
	if small > 2304 {
		t.Fatalf("one-rule batch allocates %.0f B at 1k rules, over %d", small, 2304)
	}
	if large > 12<<10 {
		t.Fatalf("one-rule batch allocates %.0f B at 64k rules, over %d", large, 12<<10)
	}
}
