package flowtable

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// collidingKey returns a key that differs from k yet hashes to the same
// 64 bits: hash finalizes lo ^ spread(hi) ^ spread(port) with a
// bijection, so changing hi and folding the difference back into lo
// leaves the hash unchanged.
func collidingKey(k matchKey, hi uint64) matchKey {
	const mul = 0x9E3779B97F4A7C15 // hash's multiplier for hi
	return matchKey{lo: k.lo ^ spread(k.hi, mul) ^ spread(hi, mul), hi: hi, port: k.port}
}

// fullShape compares every field at full width, so every matchKey is the
// key of some match under it: the trie tests build their entries with
// keyedEntry, whose match packs to the key they chose.
var fullShape = shapeKey{
	mask: FieldHostTag | FieldSubTag | FieldInPort | FieldSrc | FieldDst |
		FieldProto | FieldSrcPort | FieldDstPort,
	srcLen: 32, dstLen: 32,
}

// keyedEntry returns an entry of priority prio and install number seq
// whose match packs to k under fullShape, which a trie slot holding it
// recomputes its key from.
func keyedEntry(t *testing.T, k matchKey, prio int, seq uint64) *entry {
	t.Helper()
	m := Match{}.WithSrc(Prefix{Addr: uint32(k.lo), Len: 32}).
		WithDst(Prefix{Addr: uint32(k.lo >> 32), Len: 32}).
		WithHostTag(uint16(k.hi)).WithSubTag(uint8(k.hi >> 16)).WithProto(uint8(k.hi >> 24)).
		WithSrcPort(uint16(k.hi >> 32)).WithDstPort(uint16(k.hi >> 48)).
		WithInPort(int(k.port))
	if shapeOf(m) != fullShape || ruleKey(&m, fullShape) != k {
		t.Fatalf("key %+v: match of shape %+v packs to %+v", k, shapeOf(m), ruleKey(&m, fullShape))
	}
	return &entry{rule: Rule{Priority: prio, Match: m}, seq: seq}
}

func TestCollidingKeyCollides(t *testing.T) {
	k := matchKey{lo: 0x0A0B0C0D11223344, hi: 7, port: 3}
	c := collidingKey(k, 9)
	if c == k || c.hash() != k.hash() {
		t.Fatalf("collidingKey: %+v (hash %x) vs %+v (hash %x)", c, c.hash(), k, k.hash())
	}
}

// trieModel is a trie under test, with its duplicate index, beside its
// map model. insert and remove apply one step to both in the draft of
// generation gen, which the test advances; keep checks the draft against
// the model and records both, and checkHistory re-checks every recorded
// root against the model it had then: a mutation that wrote into a node
// or page an older root shares would corrupt that root. The duplicate
// index belongs to the newest draft alone, so only keep checks it.
type trieModel struct {
	t       *testing.T
	gen     uint64
	seq     uint64
	root    trieRoot
	dups    dupIndex
	model   map[matchKey][]*entry
	keyOf   map[*entry]matchKey
	history []publishedTrie
}

type publishedTrie struct {
	root  trieRoot
	model map[matchKey][]*entry
}

func newTrieModel(t *testing.T) *trieModel {
	return &trieModel{t: t, gen: 1, model: make(map[matchKey][]*entry), keyOf: make(map[*entry]matchKey)}
}

func (m *trieModel) insert(k matchKey, prio int) *entry {
	e := keyedEntry(m.t, k, prio, m.seq)
	m.seq++
	m.keyOf[e] = k
	m.root.insert(m.gen, k.hash(), k, fullShape, e, &m.dups)
	ents := append(slices.Clone(m.model[k]), e)
	slices.SortFunc(ents, byRank)
	m.model[k] = ents
	return e
}

func (m *trieModel) remove(e *entry) {
	k := m.keyOf[e]
	m.root.remove(m.gen, k.hash(), k, fullShape, e, &m.dups)
	m.model[k] = slices.DeleteFunc(slices.Clone(m.model[k]), func(x *entry) bool { return x == e })
	if len(m.model[k]) == 0 {
		delete(m.model, k)
	}
}

func (m *trieModel) keep(when string) {
	m.t.Helper()
	m.check(when, &m.root, m.model)
	m.checkEach(when)
	// Model slices are replaced, never edited, by later steps.
	m.history = append(m.history, publishedTrie{m.root, maps.Clone(m.model)})
}

func (m *trieModel) checkHistory() {
	m.t.Helper()
	for i := range m.history {
		m.check(fmt.Sprintf("snapshot %d", i), &m.history[i].root, m.history[i].model)
	}
}

func (m *trieModel) check(when string, root *trieRoot, model map[matchKey][]*entry) {
	t := m.t
	t.Helper()
	count := 0
	for k, ents := range model {
		count += len(ents)
		if got := root.find(k.hash(), k, fullShape); got != ents[0] {
			t.Fatalf("%s: find(%+v) = %p, want best %p", when, k, got, ents[0])
		}
	}
	absent := matchKey{lo: 1, hi: 999, port: 99}
	if got := root.find(absent.hash(), absent, fullShape); got != nil {
		t.Fatalf("%s: absent key found", when)
	}
	checkRootPages(t, root)
}

// checkEach requires the live root and the duplicate index to hold
// exactly the model's rules between them, each key's duplicates in match
// order behind its slot's rule, and the index to hold no list for a rule
// that is no slot's.
func (m *trieModel) checkEach(when string) {
	t := m.t
	t.Helper()
	count, lists := 0, 0
	for k, ents := range m.model {
		count += len(ents)
		if len(ents) > 1 {
			lists++
		}
		var dups []*entry
		for d := m.dups[ents[0]]; d != nil; d = d.next {
			dups = append(dups, d.e)
		}
		if !slices.Equal(dups, ents[1:]) {
			t.Fatalf("%s: key %+v has duplicates %v, want %v", when, k, dups, ents[1:])
		}
	}
	if len(m.dups) != lists {
		t.Fatalf("%s: duplicate index has %d lists, model %d keys with duplicates", when, len(m.dups), lists)
	}
	seen := 0
	m.root.each(m.dups, func(e *entry) {
		seen++
		if !slices.Contains(m.model[m.keyOf[e]], e) {
			t.Fatalf("%s: each yielded an entry the model lacks", when)
		}
	})
	if seen != count {
		t.Fatalf("%s: each yielded %d entries, model has %d", when, seen, count)
	}
}

// checkRootPages requires a root's pages to match its kidMap: a page
// with no child is nil, and within a page a slot with no child is the
// zero node, so a released child keeps nothing reachable.
func checkRootPages(t *testing.T, r *trieRoot) {
	t.Helper()
	for p, pg := range r.pages {
		kids := r.kidMap >> (p * pageSize) & (1<<pageSize - 1)
		if (pg == nil) != (kids == 0) {
			t.Fatalf("root page %d is nil=%v with children %04b", p, pg == nil, kids)
		}
		for i := 0; pg != nil && i < pageSize; i++ {
			if kids&(1<<i) == 0 && !reflect.ValueOf(pg[i]).IsZero() {
				t.Fatalf("root page %d slot %d has no child but is not zero: %+v", p, i, pg[i])
			}
		}
	}
}

// TestTrieAgainstMap drives the persistent trie through thousands of
// drafts of random inserts and removes — over a key pool with groups
// that collide in all 64 hash bits and with several rules per key — and
// checks every fiftieth draft against a map model, keeping it, its
// duplicate index included. Every kept root's lookups are re-checked at
// the end; the duplicates are the newest draft's alone.
func TestTrieAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pool []matchKey
	for i := 0; i < 1500; i++ {
		k := matchKey{lo: rng.Uint64(), hi: uint64(rng.Intn(4)), port: int64(rng.Intn(3))}
		pool = append(pool, k)
		if i%100 == 0 { // a group of three full-hash collisions
			pool = append(pool, collidingKey(k, 100), collidingKey(k, 200))
		}
	}
	m := newTrieModel(t)
	var live []*entry
	for ; m.gen <= 3000; m.gen++ {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				m.remove(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			live = append(live, m.insert(pool[rng.Intn(len(pool))], rng.Intn(3)))
		}
		if m.gen%50 == 0 {
			m.keep("live")
		}
	}
	if len(live) < 500 {
		t.Fatalf("only %d live entries at the end; the trie never grew deep", len(live))
	}
	m.checkHistory()
}

// TestTrieRootPages drives a root through its pages' life: all sixteen
// filled, each released when its last child folds back into the root's
// data (some pages one fold per draft, some all folds in one), all
// refilled, and one released and refilled inside a single draft. Every
// draft is checked against the model and its set of pages; a one-key
// draft must copy exactly the page it touches, and every kept root is
// re-checked at the end.
func TestTrieRootPages(t *testing.T) {
	// Three keys for each of the 64 root slots.
	var bySlot [1 << trieBits][]matchKey
	rng := rand.New(rand.NewSource(11))
	for missing := len(bySlot); missing > 0; {
		k := matchKey{lo: rng.Uint64(), hi: rng.Uint64()}
		if i := k.hash() & trieMask; len(bySlot[i]) < 3 {
			bySlot[i] = append(bySlot[i], k)
			if len(bySlot[i]) == 3 {
				missing--
			}
		}
	}
	var ents [1 << trieBits][3]*entry
	m := newTrieModel(t)
	pagesPresent := func(when string, want uint16) {
		t.Helper()
		var got uint16
		for p, pg := range m.root.pages {
			if pg != nil {
				got |= 1 << p
			}
		}
		if got != want {
			t.Fatalf("%s: pages present %016b, want %016b", when, got, want)
		}
	}
	publish := func(when string) {
		t.Helper()
		m.keep(when)
		m.gen++
	}
	slots := func(p int) []int {
		out := make([]int, pageSize)
		for i := range out {
			out[i] = p*pageSize + i
		}
		return out
	}

	for p := 0; p < rootPages; p++ { // two keys per slot: a full page
		for _, i := range slots(p) {
			ents[i][0], ents[i][1] = m.insert(bySlot[i][0], 0), m.insert(bySlot[i][1], 1)
		}
		publish(fmt.Sprintf("filled page %d", p))
		pagesPresent(fmt.Sprintf("filled page %d", p), 1<<(p+1)-1)
	}
	if m.root.kidMap != ^uint64(0) || m.root.dataMap != 0 {
		t.Fatalf("full root: kidMap %x dataMap %x", m.root.kidMap, m.root.dataMap)
	}

	const one = 3*pageSize + 3
	before := m.root.pages
	ents[one][2] = m.insert(bySlot[one][2], 2)
	for p := range before {
		if copied := m.root.pages[p] != before[p]; copied != (p == one>>pageBits) {
			t.Fatalf("one key into page %d: page %d copied = %v", one>>pageBits, p, copied)
		}
	}
	publish("one key")

	for p := 0; p < rootPages; p++ { // one key per slot again: every child folds
		for _, i := range slots(p) {
			m.remove(ents[i][1])
			if i == one {
				m.remove(ents[i][2])
			}
			if p%2 == 1 {
				publish(fmt.Sprintf("fold slot %d", i))
			}
		}
		if p%2 == 0 {
			publish(fmt.Sprintf("folded page %d", p))
		}
		pagesPresent(fmt.Sprintf("folded page %d", p), ^uint16(0)<<(p+1))
	}
	if m.root.kidMap != 0 || m.root.dataMap != ^uint64(0) {
		t.Fatalf("folded root: kidMap %x dataMap %x", m.root.kidMap, m.root.dataMap)
	}

	for p := rootPages - 1; p >= 0; p-- {
		for _, i := range slots(p) {
			ents[i][2] = m.insert(bySlot[i][2], 2)
		}
	}
	publish("refilled")
	pagesPresent("refilled", 0xFFFF)

	for _, i := range slots(5) {
		m.remove(ents[i][2])
	}
	pagesPresent("page 5 released in the draft", 0xFFFF&^(1<<5))
	for _, i := range slots(5) {
		ents[i][1] = m.insert(bySlot[i][1], 1)
	}
	publish("page 5 back")
	pagesPresent("page 5 back", 0xFFFF)
	m.checkHistory()
}

// TestBatchCopiesEachPageOnce counts the page allocations of a
// thousand-key draft (inserts, with a remove after every other one) over
// a published full root. page() allocates a page exactly when it replaces
// a page pointer, so the pointer changes seen after each step are the
// allocations: each page must be copied once, on first touch, and edited
// in place from then on.
func TestBatchCopiesEachPageOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func() matchKey { return matchKey{lo: rng.Uint64(), hi: rng.Uint64()} }
	var root trieRoot
	var dups dupIndex
	var keys []matchKey
	var ents []*entry
	for i := 0; i < 2000; i++ {
		keys = append(keys, key())
		ents = append(ents, keyedEntry(t, keys[i], 0, uint64(i)))
		root.insert(1, keys[i].hash(), keys[i], fullShape, ents[i], &dups)
	}
	if slices.Contains(root.pages[:], nil) {
		t.Fatal("2000 keys left a root page empty")
	}
	published := root.pages
	var allocs [rootPages]int
	for i := 0; i < 1000; i++ {
		prev := root.pages
		k := key()
		root.insert(2, k.hash(), k, fullShape, keyedEntry(t, k, 0, uint64(2000+i)), &dups)
		if i%2 == 1 {
			root.remove(2, keys[i].hash(), keys[i], fullShape, ents[i], &dups)
		}
		for p := range prev {
			if root.pages[p] != prev[p] {
				allocs[p]++
			}
		}
	}
	for p, n := range allocs {
		if n != 1 || root.pages[p] == published[p] {
			t.Fatalf("a 1000-key draft allocated page %d %d times, want once", p, n)
		}
	}
}

// sameArray reports whether x and y share a backing array.
func sameArray[T any](x, y []T) bool { return unsafe.SliceData(x) == unsafe.SliceData(y) }

// TestDraftCopiesOnlyWrittenArrays pins the per-array copy rule against
// a published trie whose root child c holds a key in its data and a
// child in its kids, beside root keys of its own: a draft copies an
// array only if it writes it. A key that lands in c's data leaves c's
// kids and the root's data shared; a key that descends to c's child
// leaves c's data and the root's data shared. A draft of a table that
// touches one tuple copies that tuple's header and no other.
func TestDraftCopiesOnlyWrittenArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// keyAt returns a fresh key whose hash has the given six-bit digits
	// at levels 0, 1, … and none of notNext at the level after them.
	keyAt := func(notNext []uint64, digits ...uint64) matchKey {
		for {
			k := matchKey{lo: rng.Uint64(), hi: rng.Uint64()}
			h := k.hash()
			ok := true
			for l, d := range digits {
				ok = ok && h>>(l*trieBits)&trieMask == d
			}
			next := h >> (len(digits) * trieBits) & trieMask
			if ok && !slices.Contains(notNext, next) {
				return k
			}
		}
	}
	const slot, sub = 21, 40 // c is the root's child at slot, c's child at sub
	a := keyAt(nil, slot, sub)
	b := keyAt([]uint64{sub}, slot)
	b1 := b.hash() >> trieBits & trieMask
	aNext := a.hash() >> (2 * trieBits) & trieMask
	c2 := keyAt([]uint64{aNext}, slot, sub)
	var pub trieRoot
	var dups dupIndex // every key is distinct
	for i, k := range []matchKey{a, b, c2, keyAt([]uint64{slot}), keyAt([]uint64{slot})} {
		pub.insert(1, k.hash(), k, fullShape, keyedEntry(t, k, 0, uint64(i)), &dups)
	}
	kidOf := func(r *trieRoot) *trieNode { return &r.pages[slot>>pageBits][slot&pageMask] }
	if c := kidOf(&pub); len(c.data) != 1 || len(c.kids) != 1 || len(pub.data) != 2 {
		t.Fatalf("published trie: child holds %d keys and %d children, root %d keys", len(c.data), len(c.kids), len(pub.data))
	}

	d := pub
	k := keyAt([]uint64{sub, b1}, slot)
	d.insert(2, k.hash(), k, fullShape, keyedEntry(t, k, 0, 10), &dups)
	c, pc := kidOf(&d), kidOf(&pub)
	if len(c.data) != 2 || sameArray(c.data, pc.data) {
		t.Fatalf("a key into the child's data left it shared (%d keys)", len(c.data))
	}
	if !sameArray(c.kids, pc.kids) {
		t.Fatal("a key into the child's data copied its kids")
	}
	if !sameArray(d.data, pub.data) {
		t.Fatal("a key below the root copied the root's data")
	}

	d = pub
	k = keyAt([]uint64{aNext, c2.hash() >> (2 * trieBits) & trieMask}, slot, sub)
	d.insert(2, k.hash(), k, fullShape, keyedEntry(t, k, 0, 11), &dups)
	c = kidOf(&d)
	if len(c.kids) != 1 || len(c.kids[0].data) != 3 || sameArray(c.kids, pc.kids) {
		t.Fatal("a key into the grandchild did not copy the child's kids")
	}
	if !sameArray(c.data, pc.data) {
		t.Fatal("a key into the grandchild copied the child's data")
	}
	if !sameArray(d.data, pub.data) {
		t.Fatal("a key below the root copied the root's data")
	}

	tbl := NewTable()
	for i := 0; i < 40; i++ { // several shapes, one of them a trie
		if err := tbl.Install(churnRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := tbl.compiled.Load()
	r := churnRule(40) // the trie shape
	if err := tbl.Install(r); err != nil {
		t.Fatal(err)
	}
	after := tbl.compiled.Load()
	touched := shapeOf(r.Match)
	if len(before.tuples) < 3 || len(after.tuples) != len(before.tuples) {
		t.Fatalf("%d tuples before, %d after", len(before.tuples), len(after.tuples))
	}
	for _, tp := range after.tuples {
		if old := before.tuples[before.indexOf(tp.shape)]; (old == tp) == (tp.shape == touched) {
			t.Fatalf("tuple %+v: header shared = %v after a draft that touched %+v", tp.shape, old == tp, touched)
		}
	}
}

// TestStampOverflowCopies runs drafts whose generations are past what a
// node's stamp can hold, the first of them one whose shifted generation
// equals the published trie's. Such a draft must copy every array it
// writes: every kept root is re-checked at the end.
func TestStampOverflowCopies(t *testing.T) {
	const maxStampGen = math.MaxUint64 >> stampBits // the last one a stamp holds
	var n trieNode
	n.mark(1, ownsData)
	if !n.owns(1, ownsData) || n.owns(1, ownsKids) || n.owns(1+maxStampGen+1, ownsData) {
		t.Fatalf("stamp %x: owns(1, data)=%v owns(1, kids)=%v owns(overflowed, data)=%v",
			n.stamp, n.owns(1, ownsData), n.owns(1, ownsKids), n.owns(1+maxStampGen+1, ownsData))
	}
	rng := rand.New(rand.NewSource(17))
	m := newTrieModel(t)
	var live []*entry
	for i := 0; i < 600; i++ {
		live = append(live, m.insert(matchKey{lo: rng.Uint64(), hi: rng.Uint64()}, 0))
	}
	m.keep("published at generation 1")
	for m.gen = 1 + maxStampGen + 1; m.gen < maxStampGen+10; m.gen++ {
		for j := 0; j < 50; j++ {
			i := rng.Intn(len(live))
			m.remove(live[i])
			live[i] = m.insert(matchKey{lo: rng.Uint64(), hi: rng.Uint64()}, 0)
		}
		m.keep(fmt.Sprintf("overflowed generation %d", m.gen))
	}
	m.checkHistory()
}

// TestFullHashCollisionThroughTable installs real rules whose packed keys
// collide in all 64 hash bits, inside a tuple large enough to be a trie,
// and checks Lookup against LookupLinear while they come and go.
func TestFullHashCollisionThroughTable(t *testing.T) {
	shape := shapeKey{mask: FieldHostTag | FieldSrc | FieldDst, srcLen: 32, dstLen: 32}
	ruleFor := func(k matchKey, name string) Rule {
		return Rule{Name: name, Priority: 5,
			Match: Match{}.WithHostTag(uint16(k.hi)).
				WithSrc(Prefix{Addr: uint32(k.lo), Len: 32}).
				WithDst(Prefix{Addr: uint32(k.lo >> 32), Len: 32}),
			Actions: []Action{{Type: ActForward, Port: int(k.hi)}}}
	}
	base := matchKey{lo: 0x0A0000010B000002, hi: 1}
	keys := []matchKey{base, collidingKey(base, 2), collidingKey(base, 3)}
	for i := uint64(0); i < 20; i++ { // filler so the tuple is a trie
		keys = append(keys, matchKey{lo: 0xC0A80000_00000000 | i, hi: 50 + i})
	}
	tbl := NewTable()
	for i, k := range keys {
		r := ruleFor(k, string(rune('a'+i)))
		if got := ruleKey(&r.Match, shape); got != k {
			t.Fatalf("rule %d packs to %+v, want %+v", i, got, k)
		}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	if c := tbl.compiled.Load(); len(c.tuples) != 1 || !c.tuples[0].trie {
		t.Fatalf("expected one trie tuple, got %+v", c)
	}
	checkAll := func(when string) {
		t.Helper()
		for _, k := range keys {
			pkt := packetFor(ruleFor(k, "").Match, Packet{})
			got, ok := tbl.Lookup(pkt)
			want, wantOK := tbl.LookupLinear(pkt)
			if ok != wantOK || got.Name != want.Name {
				t.Fatalf("%s: key %+v: Lookup (%q,%v), LookupLinear (%q,%v)", when, k, got.Name, ok, want.Name, wantOK)
			}
		}
	}
	checkAll("all installed")
	if got, ok := tbl.Lookup(packetFor(ruleFor(keys[1], "").Match, Packet{})); !ok || got.Name != "b" {
		t.Fatalf("colliding key 1 resolved to %q ok=%v, want b", got.Name, ok)
	}
	tbl.Remove("b")
	checkAll("one collider removed")
	tbl.Remove("a")
	checkAll("two colliders removed")
	tbl.Remove("c")
	checkAll("all colliders removed")
	if err := tbl.Install(ruleFor(keys[2], "c2")); err != nil {
		t.Fatal(err)
	}
	checkAll("one collider back")
}

// TestSlotKeyMasksSpareBits installs two rules whose source prefixes
// differ only in bits their length leaves open, 10.0.0.5/24 and
// 10.0.0.9/24, at different priorities, into a trie tuple. They pack to
// one key, so they share one slot, whose key is recomputed from the best
// rule's match and must be masked the way the packet's is. Lookup must
// agree with LookupLinear when the better rule is removed, reverted, and
// removed and installed again.
func TestSlotKeyMasksSpareBits(t *testing.T) {
	rule := func(name string, addr uint32, prio int) Rule {
		return Rule{Name: name, Priority: prio,
			Match:   Match{}.WithSrc(Prefix{Addr: addr, Len: 24}),
			Actions: []Action{{Type: ActForward, Port: prio}}}
	}
	const net = 10<<24 | 0<<16 | 0<<8
	high, low := rule("high", net|9, 9), rule("low", net|5, 5)
	shape := shapeOf(high.Match)
	if ruleKey(&high.Match, shape) != ruleKey(&low.Match, shape) {
		t.Fatal("10.0.0.9/24 and 10.0.0.5/24 pack to different keys")
	}
	tbl := NewTable()
	for i := 1; i <= 20; i++ { // filler so the tuple is a trie
		if err := tbl.Install(rule(fmt.Sprintf("f%d", i), net|uint32(i)<<8|uint32(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []Rule{low, high} {
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	if c := tbl.compiled.Load(); len(c.tuples) != 1 || !c.tuples[0].trie {
		t.Fatalf("expected one trie tuple, got %+v", c)
	}
	check := func(when, want string) {
		t.Helper()
		for _, host := range []uint32{0, 5, 9, 200, 255} {
			pkt := Packet{}
			pkt.Hdr.SrcIP = net | host
			got, ok := tbl.Lookup(pkt)
			lin, linOK := tbl.LookupLinear(pkt)
			if ok != linOK || got.Name != lin.Name || got.Name != want {
				t.Fatalf("%s: 10.0.0.%d: Lookup (%q,%v), LookupLinear (%q,%v), want %q",
					when, host, got.Name, ok, lin.Name, linOK, want)
			}
		}
	}
	check("both installed", "high")
	_, undo, err := tbl.ApplyBatchUndo([]BatchOp{{Remove: "high"}})
	if err != nil {
		t.Fatal(err)
	}
	check("best removed", "low")
	tbl.Revert(undo)
	check("removal reverted", "high")
	tbl.Remove("high")
	check("best removed again", "low")
	if err := tbl.Install(high); err != nil {
		t.Fatal(err)
	}
	check("best reinstalled", "high")
	tbl.Remove("low")
	check("other removed", "high")
}

// TestTrieDuplicatesPromoteInMatchOrder puts five rules of one key, at
// mixed priorities, into a trie among a hundred other keys, one draft
// each, and then removes the key's best rule draft after draft. Each time
// the next rule in match order must take the slot, with the rest behind
// it in the duplicate index in match order (trieModel.keep checks both),
// and every kept root must still answer as it did.
func TestTrieDuplicatesPromoteInMatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := newTrieModel(t)
	for i := 0; i < 100; i++ {
		m.insert(matchKey{lo: rng.Uint64(), hi: rng.Uint64()}, 0)
	}
	m.keep("filler")
	m.gen++
	k := matchKey{lo: rng.Uint64(), hi: 5}
	var ents []*entry
	for _, prio := range []int{3, 7, 5, 3, 9} {
		ents = append(ents, m.insert(k, prio))
		m.keep(fmt.Sprintf("priority %d added", prio))
		m.gen++
	}
	slices.SortFunc(ents, byRank)
	if len(m.dups) != 1 || m.dups[ents[0]] == nil {
		t.Fatalf("duplicate index %v, want one list behind the priority-9 rule", m.dups)
	}
	for i, e := range ents {
		if got := m.root.find(k.hash(), k, fullShape); got != e {
			t.Fatalf("before removal %d: find = %p, want %p (priority %d)", i, got, e, e.rule.Priority)
		}
		m.remove(e)
		m.keep(fmt.Sprintf("best %d removed", i))
		m.gen++
	}
	if got := m.root.find(k.hash(), k, fullShape); got != nil || len(m.dups) != 0 {
		t.Fatalf("all five removed: find = %p, duplicate index %v", got, m.dups)
	}
	m.checkHistory()
}

// dataHolding returns the data array of the node of r that holds, or
// would hold, key k.
func dataHolding(r *trieRoot, k matchKey) []trieSlot {
	h := k.hash()
	i := h & trieMask
	if r.dataMap>>i&1 != 0 || r.kidMap>>i&1 == 0 {
		return r.data
	}
	n := &r.pages[i>>pageBits][i&pageMask]
	for shift := uint(trieBits); shift < hashBits; shift += trieBits {
		bit := uint64(1) << (h >> shift & trieMask)
		if n.kidMap&bit == 0 {
			break
		}
		n = &n.kids[bits.OnesCount64(n.kidMap&(bit-1))]
	}
	return n.data
}

// TestTableDuplicateKeys installs four rules of one match, under
// different names and at mixed priorities, into a trie tuple of two
// hundred keys. Lookup must return the best of them; adding or removing
// a rule the best precedes must publish a trie that shares every array
// and page with the one before, the data array holding the key included;
// a reverted batch that removed the best must bring it back; and
// removing the best each time must promote the next in match order,
// until the key is gone and the duplicate index is empty.
func TestTableDuplicateKeys(t *testing.T) {
	tbl := NewTable()
	fill := make([]BatchOp, 200)
	for i := range fill {
		fill[i] = BatchOp{Rule: Rule{Name: fmt.Sprintf("f%d", i), Priority: 1,
			Match: Match{}.WithHostTag(uint16(i)), Actions: []Action{{Type: ActForward, Port: i}}}}
	}
	if _, err := tbl.ApplyBatch(fill); err != nil {
		t.Fatal(err)
	}
	match := Match{}.WithHostTag(900)
	rule := func(name string, prio int) Rule {
		return Rule{Name: name, Priority: prio, Match: match, Actions: []Action{{Type: ActForward, Port: 1000 + prio}}}
	}
	for _, r := range []Rule{rule("a", 5), rule("b", 9), rule("c", 5), rule("d", 7)} {
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	pkt := packetFor(match, Packet{})
	expect := func(when, want string) {
		t.Helper()
		got, ok := tbl.Lookup(pkt)
		lin, linOK := tbl.LookupLinear(pkt)
		if ok != (want != "") || got.Name != want || ok != linOK || lin.Name != got.Name {
			t.Fatalf("%s: Lookup (%q, %v), LookupLinear (%q, %v), want %q", when, got.Name, ok, lin.Name, linOK, want)
		}
	}
	expect("four installed", "b")

	shape := shapeOf(match)
	k := ruleKey(&match, shape)
	trie := func() *tuple {
		t.Helper()
		c := tbl.compiled.Load()
		i := c.indexOf(shape)
		if i < 0 || !c.tuples[i].trie {
			t.Fatal("the host-tag tuple is not a trie")
		}
		return c.tuples[i]
	}
	sharedWith := func(before *tuple) bool {
		after := trie()
		return after.root.pages == before.root.pages && sameArray(after.root.data, before.root.data) &&
			sameArray(dataHolding(&after.root, k), dataHolding(&before.root, k))
	}
	if c := trie(); sameArray(dataHolding(&c.root, k), c.root.data) {
		t.Fatal("the key sits in the root's data; the test needs it below")
	}
	before := trie()
	if err := tbl.Install(rule("e", 2)); err != nil {
		t.Fatal(err)
	}
	if !sharedWith(before) {
		t.Fatal("adding a rule the best precedes copied part of the published trie")
	}
	expect("a duplicate added", "b")
	before = trie()
	if tbl.Remove("e") != 1 || !sharedWith(before) {
		t.Fatal("removing a rule the best precedes copied part of the published trie")
	}
	expect("a duplicate removed", "b")

	_, undo, err := tbl.ApplyBatchUndo([]BatchOp{{Remove: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	expect("best removed in a batch", "d")
	before = trie()
	tbl.Revert(undo)
	if sharedWith(before) {
		t.Fatal("reverting the best's removal left the published trie as it was")
	}
	expect("batch reverted", "b")
	for _, c := range []struct{ remove, next string }{{"b", "d"}, {"d", "a"}, {"a", "c"}, {"c", ""}} {
		if tbl.Remove(c.remove) != 1 {
			t.Fatalf("Remove(%q) removed nothing", c.remove)
		}
		expect(c.remove+" removed", c.next)
	}
	if len(tbl.dups) != 0 {
		t.Fatalf("duplicate index %v after the key emptied", tbl.dups)
	}
}
