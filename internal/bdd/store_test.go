package bdd

import (
	"math/rand"
	"testing"
	"unsafe"
)

// refStore is the store this package had before its flat tables: the
// unique table and the Apply memo are Go maps, the memo never forgets, and
// the arena grows by append. It is the oracle of FuzzStoreOps and
// TestStoreMatchesReference. The two stores must create the same nodes in
// the same order, so they agree on every Ref and on Size.
type refStore struct {
	nodes  []node
	unique map[node]Ref
	memo   map[refKey]Ref
}

// refKey memoizes binary Apply operations.
type refKey struct {
	op   uint8
	a, b Ref
}

func newRefStore() *refStore {
	return &refStore{
		nodes:  []node{{level: terminalLevel}, {level: terminalLevel}},
		unique: make(map[node]Ref),
		memo:   make(map[refKey]Ref),
	}
}

func (s *refStore) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := s.unique[key]; ok {
		return r
	}
	r := Ref(len(s.nodes))
	s.nodes = append(s.nodes, key)
	s.unique[key] = r
	return r
}

func (s *refStore) apply(op uint8, a, b Ref) Ref {
	switch op {
	case opAnd:
		if a == False || b == False {
			return False
		}
		if a == True {
			return b
		}
		if b == True {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == True || b == True {
			return True
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == b {
			return False
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
	case opDiff:
		if a == False || b == True {
			return False
		}
		if b == False {
			return a
		}
		if a == b {
			return False
		}
	}
	if (op == opAnd || op == opOr || op == opXor) && a > b {
		a, b = b, a
	}
	key := refKey{op: op, a: a, b: b}
	if r, ok := s.memo[key]; ok {
		return r
	}
	na, nb := s.nodes[a], s.nodes[b]
	var level int32
	var alo, ahi, blo, bhi Ref
	switch {
	case na.level < nb.level:
		level, alo, ahi, blo, bhi = na.level, na.lo, na.hi, b, b
	case na.level > nb.level:
		level, alo, ahi, blo, bhi = nb.level, a, a, nb.lo, nb.hi
	default:
		level, alo, ahi, blo, bhi = na.level, na.lo, na.hi, nb.lo, nb.hi
	}
	r := s.mk(level, s.apply(op, alo, blo), s.apply(op, ahi, bhi))
	s.memo[key] = r
	return r
}

// cube is CubeLits on literals known to be valid.
func (s *refStore) cube(lits []Literal) Ref {
	r := True
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].Val {
			r = s.mk(int32(lits[i].Var), False, r)
		} else {
			r = s.mk(int32(lits[i].Var), r, False)
		}
	}
	return r
}

func (s *refStore) evalBits(a Ref, bits []uint64) bool {
	for a > True {
		n := s.nodes[a]
		if bits[n.level>>6]>>(63-uint(n.level)&63)&1 != 0 {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True
}

// maxOpsNodes ends a decoded sequence once its store holds this many
// nodes: each operation may combine the largest functions so far, and a
// chain of Xors can double them every step.
const maxOpsNodes = 1 << 14

// binaryOps are the store's binary operations in opcode order, opAnd first.
var binaryOps = [...]func(*Store, Ref, Ref) Ref{(*Store).And, (*Store).Or, (*Store).Xor, (*Store).Diff}

// runStoreOps decodes data into a sequence of operations, runs it on a
// Store and on refStore side by side, and checks after every operation
// that both returned the same Ref and hold the same number of nodes; at
// the end every result must evaluate alike on sampled assignments. The
// first byte picks the variable count, 1–72, so assignments span two
// words; then each operation is an opcode byte and its operand bytes. An
// operand counts back from the newest result, so sequences build ever
// larger functions and grow the tables. It returns the store's size.
func runStoreOps(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) == 0 {
		return 0
	}
	nvars := 1 + int(data[0])%72
	data = data[1:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	s, ref := MustNewStore(nvars), newRefStore()
	results := []Ref{False, True}
	operand := func() Ref { return results[len(results)-1-next()%len(results)] }
	for op := 0; len(data) > 0 && s.Size() < maxOpsNodes; op++ {
		var got, want Ref
		switch code := next() % 8; code {
		case 0:
			v := next() % nvars
			got, _ = s.Var(v)
			want = ref.mk(int32(v), False, True)
		case 1:
			v := next() % nvars
			got, _ = s.NVar(v)
			want = ref.mk(int32(v), True, False)
		case 2:
			var lits []Literal
			for v, n := next()%nvars, next()%6; v < nvars && len(lits) < n; v += 1 + next()%8 {
				lits = append(lits, Literal{Var: v, Val: next()%2 == 1})
			}
			var err error
			if got, err = s.CubeLits(lits); err != nil {
				t.Fatalf("op %d: CubeLits(%v): %v", op, lits, err)
			}
			want = ref.cube(lits)
		case 7:
			a := operand()
			got, want = s.Not(a), ref.apply(opXor, a, True)
		default:
			a, b := operand(), operand()
			got, want = binaryOps[code-3](s, a, b), ref.apply(opAnd+uint8(code-3), a, b)
		}
		if got != want {
			t.Fatalf("op %d: the store returned Ref %d, the reference %d", op, got, want)
		}
		if s.Size() != len(ref.nodes) {
			t.Fatalf("op %d: the store holds %d nodes, the reference %d", op, s.Size(), len(ref.nodes))
		}
		results = append(results, got)
	}
	rng := rand.New(rand.NewSource(int64(len(results))))
	words := make([]uint64, 2)
	for _, r := range results {
		for k := 0; k < 4; k++ {
			words[0], words[1] = rng.Uint64(), rng.Uint64()
			if got, want := s.EvalBits(r, words), ref.evalBits(r, words); got != want {
				t.Fatalf("EvalBits(%d, %x) = %v, the reference says %v", r, words, got, want)
			}
		}
	}
	return s.Size()
}

// storeOpsSeed returns n pseudo-random bytes.
func storeOpsSeed(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// FuzzStoreOps runs byte-decoded Var/NVar/CubeLits/And/Or/Xor/Diff/Not
// sequences on the store and on the map-based reference (runStoreOps).
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(storeOpsSeed(1, 200))
	f.Add(storeOpsSeed(2, 600))
	f.Fuzz(func(t *testing.T, data []byte) { runStoreOps(t, data) })
}

// TestStoreMatchesReference runs the FuzzStoreOps body over 2 000
// generated sequences, enough of which outgrow a new store's tables that
// rehashing and the cache's re-making are exercised. Scratch mutations it
// catches: the cache keyed and matched without its op, the unique-table probe
// comparing lo and hi but not level, Diff normalised as if commutative,
// and a rehash that skips the newest node.
func TestStoreMatchesReference(t *testing.T) {
	grew := 0
	for seed := int64(0); seed < 2000; seed++ {
		if runStoreOps(t, storeOpsSeed(seed, 64+int(seed%2048))) >= initialSlots*3/4+2 {
			grew++
		}
	}
	t.Logf("%d of 2000 sequences outgrew the initial tables", grew)
	if grew < 500 {
		t.Fatalf("only %d of 2000 sequences outgrew the initial tables; want at least 500", grew)
	}
}

// TestOpCacheBounded: the store's memory follows its nodes, not the work
// done on it. After 10⁵ Apply steps over random formulas the operation
// cache has at most a quarter as many entries as the unique table has
// slots, and the arena, the unique table and the cache together take at
// most 48 bytes a node: 17 bytes a slot, and once the tables have grown at
// least 3/8 of a node per slot. A cache that doubles whenever a result
// evicts another, a memo in all but name (scratch mutation), fails it.
func TestOpCacheBounded(t *testing.T) {
	s := MustNewStore(8)
	rng := rand.New(rand.NewSource(5))
	for s.Applies() < 100_000 {
		randomFormula(s, rng, 6)
	}
	bytes := cap(s.nodes)*int(unsafe.Sizeof(node{})) + len(s.unique)*int(unsafe.Sizeof(Ref(0))) +
		len(s.cache)*int(unsafe.Sizeof(cacheEntry{}))
	t.Logf("%d Apply steps: %d nodes, %d unique slots, %d cache entries, %d table bytes",
		s.Applies(), s.Size(), len(s.unique), len(s.cache), bytes)
	if len(s.cache) > len(s.unique)/4 {
		t.Errorf("the cache has %d entries for %d unique slots; the bound is a quarter", len(s.cache), len(s.unique))
	}
	if bytes > 48*s.Size() {
		t.Errorf("the tables take %d bytes for %d nodes; the bound is 48 a node", bytes, s.Size())
	}
}

// TestReserveKeepsRefs: a store reserved for 5 000 nodes makes the same
// nodes in the same order as one that doubles its way up, so every Ref
// agrees, and it never doubles on the way there. Nodes counts the shared
// graph once: a formula and its copy add nothing.
func TestReserveKeepsRefs(t *testing.T) {
	grown, reserved := MustNewStore(10), MustNewStore(10)
	reserved.Reserve(5000)
	if slots, _ := reserved.Tables(); slots*3/4+2 < 5000 || slots/2*3/4+2 >= 5000 {
		t.Fatalf("Reserve(5000) made %d slots; want the smallest power of two holding 5000 nodes", slots)
	}
	g, r := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	var roots []Ref
	for reserved.Size() < 4000 {
		a, _ := randomFormula(grown, g, 7)
		b, _ := randomFormula(reserved, r, 7)
		if a != b {
			t.Fatalf("Ref %d in the growing store, %d in the reserved one", a, b)
		}
		roots = append(roots, b)
	}
	if _, d := reserved.Tables(); d != 0 {
		t.Errorf("the reserved store doubled %d times below its reservation", d)
	}
	if _, d := grown.Tables(); d == 0 {
		t.Error("the unreserved store never doubled: the test built too little")
	}
	n := reserved.Nodes(roots)
	if n == 0 || n > reserved.Size()-2 || reserved.Nodes(append(roots, roots...)) != n {
		t.Errorf("Nodes = %d over a store of %d nodes", n, reserved.Size())
	}
}

// TestCacheMadeByFirstApply: a store that only builds cubes makes no
// Apply cache, whatever sizes its tables double through. 300 /20 source
// prefixes, the class plan the classifier's allocation test builds, grow
// the tables and leave the cache nil; the Implies that follows makes it,
// empty, at a quarter of the unique table's slots.
func TestCacheMadeByFirstApply(t *testing.T) {
	const n = 300
	s := MustNewStore(32)
	cubes := make([]Ref, n)
	for i := range cubes {
		var lits [20]Literal
		for b := range lits {
			lits[b] = Literal{Var: b, Val: (10<<24|uint32(i)<<12)&(1<<uint(31-b)) != 0}
		}
		var err error
		if cubes[i], err = s.CubeLits(lits[:]); err != nil {
			t.Fatal(err)
		}
	}
	slots, doublings := s.Tables()
	t.Logf("%d prefixes: %d nodes, %d slots after %d doublings", n, s.Size(), slots, doublings)
	if doublings == 0 {
		t.Fatal("the prefixes never outgrew the initial tables: the test built too little")
	}
	if s.cache != nil {
		t.Fatalf("building cubes made a cache of %d entries; want none", len(s.cache))
	}
	if s.Implies(cubes[0], cubes[1]) {
		t.Fatal("two disjoint prefixes: one implies the other")
	}
	if len(s.cache) != slots/4 || s.Applies() == 0 {
		t.Errorf("after an Implies the cache has %d entries and %d Apply steps ran; want %d entries", len(s.cache), s.Applies(), slots/4)
	}
}
