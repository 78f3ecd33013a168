package flowtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the compiled tuple-space matcher: differential equivalence
// against the linear reference, snapshot-publication semantics (wait-free
// reads, batch atomicity), the zero-allocation pin, and the
// Pipeline.Process edge cases run against both matchers.

// diffRule builds a rule from a seeded rng, covering every shape bit,
// several prefix lengths, and colliding priorities (so tie-breaks by
// install order are exercised).
func diffRule(rng *rand.Rand, i int) Rule {
	var m Match
	mask := rng.Intn(256)
	if mask&1 != 0 {
		m = m.WithHostTag(uint16(rng.Intn(5)))
	}
	if mask&2 != 0 {
		m = m.WithSubTag(uint8(rng.Intn(4)))
	}
	if mask&4 != 0 {
		m = m.WithInPort(rng.Intn(4))
	}
	if mask&8 != 0 {
		m = m.WithSrc(Prefix{Addr: rng.Uint32(), Len: rng.Intn(40) - 3})
	}
	if mask&16 != 0 {
		m = m.WithDst(Prefix{Addr: rng.Uint32(), Len: []int{0, 8, 16, 24, 32}[rng.Intn(5)]})
	}
	if mask&32 != 0 {
		m = m.WithProto(uint8(rng.Intn(3)))
	}
	if mask&64 != 0 {
		m = m.WithSrcPort(uint16(rng.Intn(4)))
	}
	if mask&128 != 0 {
		m = m.WithDstPort(uint16(rng.Intn(4)))
	}
	return Rule{
		Name:     fmt.Sprintf("r%d", i),
		Priority: rng.Intn(6),
		Match:    m,
		Actions:  []Action{{Type: ActForward, Port: i}},
	}
}

// diffPacket builds a packet biased into the same small value ranges so
// matches actually happen.
func diffPacket(rng *rand.Rand) Packet {
	var p Packet
	p.Hdr.SrcIP = rng.Uint32()
	p.Hdr.DstIP = rng.Uint32()
	if rng.Intn(2) == 0 {
		// Low-entropy addresses collide with generated prefixes more often.
		p.Hdr.SrcIP &= 0xFF000000
		p.Hdr.DstIP &= 0xFFFF0000
	}
	p.Hdr.Proto = uint8(rng.Intn(3))
	p.Hdr.SrcPort = uint16(rng.Intn(4))
	p.Hdr.DstPort = uint16(rng.Intn(4))
	p.HostTag = uint16(rng.Intn(5))
	p.SubTag = uint8(rng.Intn(4))
	p.InPort = rng.Intn(4)
	return p
}

// TestCompiledMatchesLinearRandom is the in-package differential
// property: across many random tables (spanning empty through
// hash-bucket sizes) and packets, the compiled Lookup and the linear
// reference must return byte-identical results.
func TestCompiledMatchesLinearRandom(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			if err := tbl.Install(diffRule(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		for probe := 0; probe < 200; probe++ {
			pkt := diffPacket(rng)
			got, ok := tbl.Lookup(pkt)
			want, wantOK := tbl.LookupLinear(pkt)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d probe %d: compiled (%v,%v) != linear (%v,%v)\npacket %+v",
					seed, probe, got, ok, want, wantOK, pkt)
			}
		}
	}
}

// TestCompiledTieBreakInstallOrder pins the tie-break contract directly:
// equal-priority rules with overlapping matches resolve to the earlier
// install in both matchers, including after a remove-and-reinstall.
func TestCompiledTieBreakInstallOrder(t *testing.T) {
	tbl := NewTable()
	wide := Rule{Name: "wide", Priority: 5, Match: Match{}.WithProto(6),
		Actions: []Action{{Type: ActForward, Port: 1}}}
	narrow := Rule{Name: "narrow", Priority: 5, Match: Match{}.WithProto(6).WithSubTag(3),
		Actions: []Action{{Type: ActForward, Port: 2}}}
	if err := tbl.Install(wide); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(narrow); err != nil {
		t.Fatal(err)
	}
	pkt := Packet{SubTag: 3}
	pkt.Hdr.Proto = 6
	got, ok := tbl.Lookup(pkt)
	if !ok || got.Name != "wide" {
		t.Fatalf("expected earlier-installed wide to win the tie, got %q ok=%v", got.Name, ok)
	}
	if lin, _ := tbl.LookupLinear(pkt); lin.Name != got.Name {
		t.Fatalf("linear returned %q, compiled %q", lin.Name, got.Name)
	}
	// Reinstalling wide moves it behind narrow in install order.
	tbl.Remove("wide")
	if err := tbl.Install(wide); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Lookup(pkt)
	if got.Name != "narrow" {
		t.Fatalf("after reinstall, expected narrow to win, got %q", got.Name)
	}
	if lin, _ := tbl.LookupLinear(pkt); lin.Name != got.Name {
		t.Fatalf("linear returned %q, compiled %q", lin.Name, got.Name)
	}
}

// TestCompiledHashedTuple forces one shape past tupleHashCutoff so the
// hashed-tuple path is exercised, including a key that is absent.
func TestCompiledHashedTuple(t *testing.T) {
	tbl := NewTable()
	const n = 3 * tupleHashCutoff
	for i := 0; i < n; i++ {
		r := Rule{
			Name:     fmt.Sprintf("h%d", i),
			Priority: 10,
			Match:    Match{}.WithHostTag(uint16(i)),
			Actions:  []Action{{Type: ActForward, Port: i}},
		}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	c := tbl.compiled.Load()
	if c == nil || len(c.tuples) != 1 || !c.tuples[0].trie {
		t.Fatalf("expected one hashed tuple, got %+v", c)
	}
	for i := 0; i < n; i++ {
		pkt := Packet{HostTag: uint16(i)}
		got, ok := tbl.Lookup(pkt)
		if !ok || got.Port() != i {
			t.Fatalf("tag %d: got %+v ok=%v", i, got, ok)
		}
	}
	if _, ok := tbl.Lookup(Packet{HostTag: n + 1}); ok {
		t.Fatal("absent key matched")
	}
}

// Port extracts the forward port of a rule's first action (test helper).
func (r Rule) Port() int { return r.Actions[0].Port }

// TestLookupWaitFreeWhileWriterHoldsLock is the never-blocks-readers
// guarantee stated literally: with the table's write lock held, Lookup
// and Process must still complete against the last published snapshot.
func TestLookupWaitFreeWhileWriterHoldsLock(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Install(Rule{Name: "base", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 7}}}); err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := pl.Table(0)
	if err := pt.Install(Rule{Name: "base", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 7}}}); err != nil {
		t.Fatal(err)
	}

	tbl.mu.Lock()
	pt.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if r, ok := tbl.Lookup(Packet{}); !ok || r.Name != "base" {
			done <- fmt.Errorf("lookup under held write lock: %+v ok=%v", r, ok)
			return
		}
		pkt := &Packet{}
		res, err := pl.Process(pkt)
		if err != nil || res.Disposition != DispForward || res.Port != 7 {
			done <- fmt.Errorf("process under held write lock: %+v err=%v", res, err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lookup/Process blocked while a writer held the table lock")
	}
	tbl.mu.Unlock()
	pt.mu.Unlock()
}

// TestApplyBatchAtomicVisibility checks single-publication semantics: a
// batch that removes rule A and installs rule B is observed atomically —
// every concurrent lookup sees exactly one of them, never neither.
func TestApplyBatchAtomicVisibility(t *testing.T) {
	tbl := NewTable()
	mk := func(name string, port int) Rule {
		return Rule{Name: name, Priority: 1, Actions: []Action{{Type: ActForward, Port: port}}}
	}
	if err := tbl.Install(mk("a", 1)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rule, ok := tbl.Lookup(Packet{})
				if !ok || (rule.Name != "a" && rule.Name != "b") {
					t.Errorf("torn batch state: rule=%+v ok=%v", rule, ok)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		cur, next := "a", "b"
		if i%2 == 1 {
			cur, next = "b", "a"
		}
		ops := []BatchOp{{Remove: cur}, {Rule: mk(next, i)}}
		if _, err := tbl.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLookupZeroAllocs pins the hot path at zero allocations per
// operation: compiled Lookup over linear and hashed tuples, and a full
// multi-table Process walk with tag rewrites.
func TestLookupZeroAllocs(t *testing.T) {
	tbl := NewTable()
	rng := rand.New(rand.NewSource(42))
	// Enough same-shape rules to force a hashed tuple, plus a spread of
	// other shapes so several tuples are probed per lookup.
	var ops []BatchOp
	for i := 0; i < 3*tupleHashCutoff; i++ {
		ops = append(ops, BatchOp{Rule: Rule{
			Name: fmt.Sprintf("tag%d", i), Priority: 20,
			Match:   Match{}.WithHostTag(uint16(i)),
			Actions: []Action{{Type: ActForward, Port: i}},
		}})
	}
	for i := 0; i < 6; i++ {
		ops = append(ops, BatchOp{Rule: Rule{
			Name: fmt.Sprintf("dst%d", i), Priority: 10,
			Match:   Match{}.WithDst(Prefix{Addr: rng.Uint32(), Len: 24}),
			Actions: []Action{{Type: ActForward, Port: i}},
		}})
	}
	ops = append(ops, BatchOp{Rule: Rule{
		Name: "default", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 99}},
	}})
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	pkt := Packet{HostTag: 3}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tbl.Lookup(pkt); !ok {
			t.Fatal("lookup missed")
		}
	}); allocs != 0 {
		t.Fatalf("Lookup allocates %v times per run, want 0", allocs)
	}

	pl, err := NewPipeline(3)
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := pl.Table(0)
	t1, _ := pl.Table(1)
	t2, _ := pl.Table(2)
	if err := t0.Install(Rule{Name: "classify", Priority: 1,
		Match:   Match{}.WithHostTag(HostTagEmpty),
		Actions: []Action{{Type: ActSetHostTag, Tag: 5}, {Type: ActGotoTable, Table: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Install(Rule{Name: "steer", Priority: 1,
		Match:   Match{}.WithHostTag(5),
		Actions: []Action{{Type: ActSetSubTag, Tag: 2}, {Type: ActGotoTable, Table: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Install(Rule{Name: "route", Priority: 1,
		Actions: []Action{{Type: ActForward, Port: 4}}}); err != nil {
		t.Fatal(err)
	}
	p := &Packet{}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.HostTag, p.SubTag = HostTagEmpty, 0
		res, err := pl.Process(p)
		if err != nil || res.Disposition != DispForward || res.Port != 4 {
			t.Fatalf("process: %+v err=%v", res, err)
		}
	}); allocs != 0 {
		t.Fatalf("Process allocates %v times per run, want 0", allocs)
	}
}

// checkTailsZeroed fails if any slice reachable from the snapshot keeps a
// non-zero value beyond its length: in-place edits of draft-owned slices
// shrink them, and a stale tail would keep removed rules (Action slices,
// name strings) reachable through the backing array. Root pages are held
// to the same contract (checkRootPages).
func checkTailsZeroed(t *testing.T, c *compiledTable) {
	t.Helper()
	slots := func(data []trieSlot) {
		for i, s := range data[len(data):cap(data)] {
			if s != (trieSlot{}) {
				t.Fatalf("trie data tail slot %d not zeroed: %+v", i, s)
			}
		}
	}
	var node func(n *trieNode)
	node = func(n *trieNode) {
		slots(n.data)
		for i, k := range n.kids[len(n.kids):cap(n.kids)] {
			if k.data != nil || k.kids != nil {
				t.Fatalf("trie kids tail slot %d not zeroed", i)
			}
		}
		for i := range n.kids {
			node(&n.kids[i])
		}
	}
	for _, tp := range c.tuples[len(c.tuples):cap(c.tuples)] {
		if !reflect.ValueOf(tp).IsZero() {
			t.Fatalf("tuple tail not zeroed: %+v", tp)
		}
	}
	for _, tp := range c.tuples {
		for i, e := range tp.ents[len(tp.ents):cap(tp.ents)] {
			if e != nil {
				t.Fatalf("tuple ents tail slot %d not zeroed", i)
			}
		}
		slots(tp.root.data)
		checkRootPages(t, &tp.root)
		for _, pg := range tp.root.pages {
			for i := 0; pg != nil && i < pageSize; i++ {
				node(&pg[i])
			}
		}
	}
}

// TestRemoveZeroesTails checks the memory-retention contract on every
// structure a remove shrinks in place: after batches that install and
// remove within one draft (so slices are edited, not copied), no backing
// array keeps a dropped rule reachable, in slice tuples, trie tuples, or
// the tuple list itself, and the name index forgets the name.
func TestRemoveZeroesTails(t *testing.T) {
	tbl := NewTable()
	var ops []BatchOp
	for i := 0; i < 8; i++ { // one slice tuple (no match fields)
		name := "keep"
		if i%2 == 0 {
			name = "drop"
		}
		ops = append(ops, BatchOp{Rule: Rule{Name: name, Priority: i,
			Actions: []Action{{Type: ActForward, Port: i}}}})
	}
	for i := 0; i < 200; i++ { // one trie tuple
		name := "keep"
		if i%3 == 0 {
			name = "drop"
		}
		ops = append(ops, BatchOp{Rule: Rule{Name: name, Priority: 50,
			Match: Match{}.WithHostTag(uint16(i)), Actions: []Action{{Type: ActForward, Port: i}}}})
	}
	ops = append(ops, BatchOp{Rule: Rule{Name: "drop", Priority: 1, // a tuple that empties
		Match: Match{}.WithProto(6), Actions: []Action{{Type: ActDrop}}}})
	ops = append(ops, BatchOp{Remove: "drop"})
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if tbl.Size() != 4+133 || tbl.Has("drop") {
		t.Fatalf("size %d, Has(drop)=%v", tbl.Size(), tbl.Has("drop"))
	}
	checkTailsZeroed(t, tbl.compiled.Load())
	// The same through separate publications (copy, then shrink).
	if removed := tbl.Remove("keep"); removed != 4+133 {
		t.Fatalf("removed %d, want %d", removed, 4+133)
	}
	if c := tbl.compiled.Load(); len(c.tuples) != 0 {
		t.Fatalf("empty table still has %d tuples", len(c.tuples))
	}
	checkTailsZeroed(t, tbl.compiled.Load())
	if tbl.size != 0 || len(tbl.byName) != 0 || len(tbl.dups) != 0 {
		t.Fatalf("writer-side structures not empty: size=%d byName=%v dups=%v", tbl.size, tbl.byName, tbl.dups)
	}
}

// TestNameIndexConsistency checks the name index against the compiled
// snapshot through installs, removes, and batches — including multiple
// rules sharing one name, whose chain must stay in install order.
func TestNameIndexConsistency(t *testing.T) {
	tbl := NewTable()
	mk := func(name string, prio int) Rule {
		return Rule{Name: name, Priority: prio, Actions: []Action{{Type: ActForward, Port: prio}}}
	}
	check := func(when string) {
		t.Helper()
		counts := make(map[string]int)
		tbl.mu.RLock()
		if c := tbl.compiled.Load(); c != nil {
			for _, tp := range c.tuples {
				tp.root.each(tbl.dups, func(e *entry) { counts[e.rule.Name]++ })
				for _, e := range tp.ents {
					counts[e.rule.Name]++
				}
			}
		}
		for name, n := range counts {
			if tbl.byName[name] == nil {
				t.Fatalf("%s: Has(%q) false with %d rules present", when, name, n)
			}
		}
		indexed := make(map[string]int)
		for name, head := range tbl.byName {
			for e := head; e != nil; e = e.nextSameName {
				if e.rule.Name != name || (e.nextSameName != nil && e.nextSameName.seq <= e.seq) {
					t.Fatalf("%s: chain of %q holds %q (seq %d) out of install order", when, name, e.rule.Name, e.seq)
				}
				indexed[name]++
			}
		}
		tbl.mu.RUnlock()
		if !reflect.DeepEqual(indexed, counts) {
			t.Fatalf("%s: name index %v != actual %v", when, indexed, counts)
		}
	}
	for i := 0; i < 3; i++ {
		if err := tbl.Install(mk("shared", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Install(mk("solo", 9)); err != nil {
		t.Fatal(err)
	}
	check("after installs")
	if tbl.Has("absent") {
		t.Fatal("Has(absent) = true")
	}
	if removed := tbl.Remove("shared"); removed != 3 {
		t.Fatalf("Remove(shared) = %d, want 3", removed)
	}
	check("after remove")
	if _, err := tbl.ApplyBatch([]BatchOp{
		{Remove: "solo", Rule: mk("solo", 1)},
		{Remove: "nothing"},
		{Rule: mk("fresh", 3)},
	}); err != nil {
		t.Fatal(err)
	}
	check("after batch")
	if got := tbl.Names(); !reflect.DeepEqual(got, []string{"fresh", "solo"}) {
		t.Fatalf("Names() = %v", got)
	}
}

// processCase is one Pipeline.Process edge case, run against both the
// compiled and the linear matcher.
type processCase struct {
	name    string
	build   func(t *testing.T) *Pipeline
	pkt     *Packet
	want    Result
	wantErr string // substring of the expected error, "" for nil
	after   func(t *testing.T, p *Packet)
}

func processEdgeCases() []processCase {
	fwd := func(port int) []Action { return []Action{{Type: ActForward, Port: port}} }
	mustInstall := func(t *testing.T, pl *Pipeline, ti int, r Rule) {
		t.Helper()
		tb, err := pl.Table(ti)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	return []processCase{
		{
			name: "goto backward is an error",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(3)
				mustInstall(t, pl, 0, Rule{Name: "fwd", Priority: 1,
					Actions: []Action{{Type: ActGotoTable, Table: 1}}})
				mustInstall(t, pl, 1, Rule{Name: "back", Priority: 1,
					Actions: []Action{{Type: ActGotoTable, Table: 0}}})
				return pl
			},
			pkt:     &Packet{},
			wantErr: `rule "back" goto table 0 from table 1 is invalid`,
		},
		{
			name: "goto same table is an error",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(2)
				mustInstall(t, pl, 0, Rule{Name: "self", Priority: 1,
					Actions: []Action{{Type: ActGotoTable, Table: 0}}})
				return pl
			},
			pkt:     &Packet{},
			wantErr: `rule "self" goto table 0 from table 0 is invalid`,
		},
		{
			name: "goto out of range is an error",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(2)
				mustInstall(t, pl, 0, Rule{Name: "beyond", Priority: 1,
					Actions: []Action{{Type: ActGotoTable, Table: 5}}})
				return pl
			},
			pkt:     &Packet{},
			wantErr: `rule "beyond" goto table 5 from table 0 is invalid`,
		},
		{
			name: "rule without terminal action is a named no-match",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(1)
				mustInstall(t, pl, 0, Rule{Name: "tagonly", Priority: 1,
					Actions: []Action{{Type: ActSetHostTag, Tag: 3}}})
				return pl
			},
			pkt:  &Packet{},
			want: Result{Disposition: DispNoMatch, Rule: "tagonly"},
			after: func(t *testing.T, p *Packet) {
				if p.HostTag != 3 {
					t.Fatalf("tag rewrite lost: HostTag=%d", p.HostTag)
				}
			},
		},
		{
			name: "empty pipeline is an anonymous no-match",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(2)
				return pl
			},
			pkt:  &Packet{},
			want: Result{Disposition: DispNoMatch},
		},
		{
			name: "tag rewrites are visible to later tables",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(3)
				mustInstall(t, pl, 0, Rule{Name: "classify", Priority: 2,
					Match: Match{}.WithHostTag(HostTagEmpty),
					Actions: []Action{
						{Type: ActSetHostTag, Tag: 7},
						{Type: ActSetSubTag, Tag: 3},
						{Type: ActGotoTable, Table: 1},
					}})
				// Table 1 matches only the rewritten tags; a stale-tag
				// packet would fall to the low-priority drop.
				mustInstall(t, pl, 1, Rule{Name: "steered", Priority: 2,
					Match:   Match{}.WithHostTag(7).WithSubTag(3),
					Actions: []Action{{Type: ActGotoTable, Table: 2}}})
				mustInstall(t, pl, 1, Rule{Name: "stale", Priority: 1,
					Actions: []Action{{Type: ActDrop}}})
				mustInstall(t, pl, 2, Rule{Name: "deliver", Priority: 1,
					Match: Match{}.WithHostTag(7), Actions: fwd(9)})
				return pl
			},
			pkt:  &Packet{HostTag: HostTagEmpty},
			want: Result{Disposition: DispForward, Port: 9, Rule: "deliver"},
			after: func(t *testing.T, p *Packet) {
				if p.HostTag != 7 || p.SubTag != 3 {
					t.Fatalf("final tags %d/%d, want 7/3", p.HostTag, p.SubTag)
				}
			},
		},
		{
			name: "drop terminates with the dropping rule",
			build: func(t *testing.T) *Pipeline {
				pl, _ := NewPipeline(1)
				mustInstall(t, pl, 0, Rule{Name: "acl", Priority: 5,
					Match: Match{}.WithProto(17), Actions: []Action{{Type: ActDrop}}})
				mustInstall(t, pl, 0, Rule{Name: "pass", Priority: 0, Actions: fwd(1)})
				return pl
			},
			pkt: func() *Packet {
				p := &Packet{}
				p.Hdr.Proto = 17
				return p
			}(),
			want: Result{Disposition: DispDrop, Rule: "acl"},
		},
	}
}

// TestProcessEdgeCasesBothMatchers runs every edge case through Process
// (compiled) and ProcessLinear (reference) and requires identical
// results, errors, and final packet state.
func TestProcessEdgeCasesBothMatchers(t *testing.T) {
	for _, tc := range processEdgeCases() {
		for _, mode := range []string{"compiled", "linear"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				pl := tc.build(t)
				pkt := *tc.pkt
				var res Result
				var err error
				if mode == "compiled" {
					res, err = pl.Process(&pkt)
				} else {
					res, err = pl.ProcessLinear(&pkt)
				}
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if res != tc.want {
					t.Fatalf("result %+v, want %+v", res, tc.want)
				}
				if tc.after != nil {
					tc.after(t, &pkt)
				}
			})
		}
	}
	// Nil packet is rejected by both entry points.
	pl, _ := NewPipeline(1)
	if _, err := pl.Process(nil); err == nil {
		t.Fatal("Process(nil) accepted")
	}
	if _, err := pl.ProcessLinear(nil); err == nil {
		t.Fatal("ProcessLinear(nil) accepted")
	}
}
