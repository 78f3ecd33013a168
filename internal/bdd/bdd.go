// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The atomic-predicate flow classifier (internal/headerspace) represents
// packet-header predicates as BDDs over header bits, following the approach
// of Yang & Lam that the APPLE paper adopts for traffic aggregation
// (§IV-A). The implementation uses the classic hash-consed node store with
// a cached Apply, so structurally equal predicates share one canonical
// node and equality is a pointer comparison.
//
// The store is laid out the way BuDDy and CUDD lay theirs out: a node arena
// that grows by doubling, an open-addressed unique table of arena indexes
// keyed by the nodes themselves, and a direct-mapped, lossy operation cache
// a quarter the size of the unique table, made by the first Apply after
// each resize, so a store that only builds cubes never makes one. Its
// memory is O(nodes), however many Apply calls are made on it. A caller
// that knows roughly how many nodes it will create reserves them
// (Reserve), so the tables are made once at that size instead of doubling
// their way up to it.
package bdd

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Ref is a reference to a canonical BDD node within a Store. The zero Ref is
// the constant false; Ref(1) is the constant true.
type Ref int32

// Constants for the terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// node is an internal decision node: if variable var is 0 follow lo, else hi.
type node struct {
	level  int32 // variable index; terminals use math.MaxInt32
	lo, hi Ref
}

const terminalLevel = int32(math.MaxInt32)

// Binary operation codes for apply. Zero marks an empty cache entry.
const (
	opAnd uint8 = iota + 1
	opOr
	opXor
	opDiff // a AND NOT b
)

// cacheEntry is one slot of the operation cache: op(a, b) = r.
type cacheEntry struct {
	a, b Ref
	op   uint8
	r    Ref
}

// initialSlots is the unique table's size in a new store.
const initialSlots = 512

// Store owns the node table for a family of BDDs that share a variable
// order. All Refs produced by a Store are only meaningful with that Store.
//
// Store is not safe for concurrent use.
type Store struct {
	nvars int
	// nodes is the arena: Ref r is nodes[r], so a Ref is its node's
	// creation index. Its capacity is what unique holds at 3/4 load plus
	// the two terminals, and it is re-made at twice that when full.
	nodes []node
	// unique finds a node's Ref by the node: open addressing with linear
	// probing over a power-of-two table. A slot holds the Ref of the node
	// it keys, or False (never a decision node) when empty.
	unique []Ref
	// cache is the direct-mapped Apply cache, len(unique)/4 entries: a
	// result overwrites whatever its slot held. It is nil until apply needs
	// it, and dropped, not rehashed, whenever unique is re-made, so a run
	// of mk calls with no Apply between them (cubes, prefixes) makes no
	// cache at any of the sizes it passes through.
	cache   []cacheEntry
	applies int
	// doublings counts grow calls: the times mk filled the arena.
	doublings int
}

// NewStore creates a store for BDDs over nvars Boolean variables, with the
// variable order 0 < 1 < ... < nvars-1 from root to leaves.
func NewStore(nvars int) (*Store, error) {
	if nvars <= 0 {
		return nil, fmt.Errorf("bdd: nvars must be positive, got %d", nvars)
	}
	s := &Store{
		nvars:  nvars,
		nodes:  make([]node, 2, initialSlots*3/4+2),
		unique: make([]Ref, initialSlots),
	}
	s.nodes[False] = node{level: terminalLevel}
	s.nodes[True] = node{level: terminalLevel}
	return s, nil
}

// MustNewStore is NewStore for constant sizes; it panics on error.
func MustNewStore(nvars int) *Store {
	s, err := NewStore(nvars)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the number of canonical nodes allocated (including the two
// terminals).
func (s *Store) Size() int { return len(s.nodes) }

// Applies returns the number of Apply steps the store has computed: the
// recursive calls that neither a terminal rule nor the operation cache
// answered. It is the deterministic unit of BDD work, which the
// complexity tests of the layers above count instead of wall time. The
// cache is lossy, so a step whose entry was overwritten is computed, and
// counted, again when it recurs.
func (s *Store) Applies() int { return s.applies }

// hash mixes three 32-bit keys (Fibonacci hashing: the high half of a
// multiply by 2^64/φ). Callers mask the result to their table size.
func hash(a, b, c uint32) uint32 {
	const phi = 0x9e3779b97f4a7c15
	h := (uint64(a)*phi+uint64(b))*phi + uint64(c)
	return uint32(h * phi >> 32)
}

func hashNode(n node) uint32 { return hash(uint32(n.level), uint32(n.lo), uint32(n.hi)) }

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules: equal children collapse, and duplicates are shared.
func (s *Store) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	mask := len(s.unique) - 1
	i := int(hashNode(key)) & mask
	for ; s.unique[i] != False; i = (i + 1) & mask {
		if r := s.unique[i]; s.nodes[r] == key {
			return r
		}
	}
	r := Ref(len(s.nodes))
	s.nodes = append(s.nodes, key) // within capacity: grow keeps a free slot
	s.unique[i] = r
	if len(s.nodes) == cap(s.nodes) {
		s.grow()
	}
	return r
}

// grow doubles the tables when mk has filled the arena.
func (s *Store) grow() {
	s.doublings++
	s.resize(2 * len(s.unique))
}

// Reserve makes the tables hold at least n nodes, terminals included,
// before mk next has to grow them: it resizes them once, to the smallest
// power-of-two slot count that holds n at 3/4 load, and does nothing when
// they already hold n. The nodes, and so every Ref, are unchanged.
func (s *Store) Reserve(n int) {
	slots := len(s.unique)
	for slots*3/4+2 < n {
		slots *= 2
	}
	if slots > len(s.unique) {
		s.resize(slots)
	}
}

// Tables reports the unique table's slot count, which sizes the arena (3/4
// of it) and the cache (a quarter, once an Apply has made it), and how
// many times mk has doubled the tables since NewStore. The classifier's
// allocation test reads it.
func (s *Store) Tables() (slots, doublings int) { return len(s.unique), s.doublings }

// resize re-makes the unique table at slots and rehashes every node into
// it, re-makes the arena at the capacity that table holds at 3/4 load, and
// drops the cache: the next apply makes it empty at a quarter of the new
// size. Refs are arena indexes, so none moves.
func (s *Store) resize(slots int) {
	nodes := make([]node, len(s.nodes), slots*3/4+2)
	copy(nodes, s.nodes)
	s.nodes = nodes
	s.unique = make([]Ref, slots)
	mask := slots - 1
	for r := 2; r < len(nodes); r++ {
		i := int(hashNode(nodes[r])) & mask
		for s.unique[i] != False {
			i = (i + 1) & mask
		}
		s.unique[i] = Ref(r)
	}
	s.cache = nil
}

// And returns a ∧ b.
func (s *Store) And(a, b Ref) Ref { return s.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (s *Store) Or(a, b Ref) Ref { return s.apply(opOr, a, b) }

// Diff returns a ∧ ¬b.
func (s *Store) Diff(a, b Ref) Ref { return s.apply(opDiff, a, b) }

// Implies reports whether a ⇒ b holds for all assignments.
func (s *Store) Implies(a, b Ref) bool { return s.Diff(a, b) == False }

// cacheSlot is the operation cache's slot for op(a, b). It makes the
// cache, empty at a quarter of the unique table, when there is none.
func (s *Store) cacheSlot(op uint8, a, b Ref) *cacheEntry {
	if s.cache == nil {
		s.cache = make([]cacheEntry, len(s.unique)/4)
	}
	return &s.cache[int(hash(uint32(op), uint32(a), uint32(b)))&(len(s.cache)-1)]
}

// apply computes the binary operation through the operation cache
// (Bryant's Apply). A cache miss, including one on a result the cache
// held and lost, recomputes the result, and because mk hash-conses, the
// recomputation returns the same canonical Ref and creates no node: the
// order nodes are created in, and so every Ref, is the same as with a
// memo that never forgets.
func (s *Store) apply(op uint8, a, b Ref) Ref {
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
	// Normalize commutative operations for better cache hit rates.
	if (op == opAnd || op == opOr || op == opXor) && a > b {
		a, b = b, a
	}
	if e := s.cacheSlot(op, a, b); e.op == op && e.a == a && e.b == b {
		return e.r
	}
	s.applies++
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
	// The slot is looked up again: the recursion may have re-made the cache.
	*s.cacheSlot(op, a, b) = cacheEntry{a: a, b: b, op: op, r: r}
	return r
}

// Literal fixes one variable to a value: the literal Var when Val is true,
// ¬Var when it is false.
type Literal struct {
	Var int
	Val bool
}

// CubeLits returns the conjunction of lits, which must be in strictly
// ascending variable order. The cube is built bottom-up, one canonical
// node per literal, with no Apply work.
func (s *Store) CubeLits(lits []Literal) (Ref, error) {
	for i, l := range lits {
		if l.Var < 0 || l.Var >= s.nvars {
			return False, fmt.Errorf("bdd: cube variable %d out of range [0,%d)", l.Var, s.nvars)
		}
		if i > 0 && l.Var <= lits[i-1].Var {
			return False, fmt.Errorf("bdd: cube variables not strictly ascending at %d", l.Var)
		}
	}
	r := True
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].Val {
			r = s.mk(int32(lits[i].Var), False, r)
		} else {
			r = s.mk(int32(lits[i].Var), r, False)
		}
	}
	return r, nil
}

// Nodes returns the number of distinct decision nodes reachable from
// roots: the size of the shared graph the roots span, terminals excluded.
func (s *Store) Nodes(roots []Ref) int {
	seen := make([]uint64, (len(s.nodes)+63)/64)
	stack := append([]Ref(nil), roots...)
	n := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r <= True || seen[r/64]&(1<<(r%64)) != 0 {
			continue
		}
		seen[r/64] |= 1 << (r % 64)
		n++
		stack = append(stack, s.nodes[r].lo, s.nodes[r].hi)
	}
	return n
}

// SatCount returns the number of satisfying assignments of a over all
// the store's variables, as a float64 (exact for counts below 2^53).
func (s *Store) SatCount(a Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(r Ref) float64 // satisfying fraction over remaining vars
	count = func(r Ref) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if c, ok := memo[r]; ok {
			return c
		}
		n := s.nodes[r]
		c := 0.5*count(n.lo) + 0.5*count(n.hi)
		memo[r] = c
		return c
	}
	return count(a) * math.Pow(2, float64(s.nvars))
}

// EvalBits evaluates the function at the assignment packed into bits:
// variable v is bit 63-(v mod 64) of bits[v/64], so variable 0 is the most
// significant bit of the first word. bits must hold a bit per variable of the store.
// It allocates nothing and writes nothing, so any number of goroutines may
// evaluate against a store that no one is mutating.
//
//apple:noalloc
func (s *Store) EvalBits(a Ref, bits []uint64) bool {
	for a > True {
		n := &s.nodes[a]
		if bits[n.level>>6]>>(63-uint(n.level)&63)&1 != 0 {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True
}

// AnySat returns one satisfying assignment of a, or an error if a is False.
// Unconstrained variables are reported as false. No production path reads
// an example back out of a predicate; the headerspace tests' Predicate
// Example oracle does.
func (s *Store) AnySat(a Ref) ([]bool, error) {
	if a == False {
		return nil, errors.New("bdd: unsatisfiable")
	}
	out := make([]bool, s.nvars)
	for a != True {
		n := s.nodes[a]
		if n.lo != False {
			a = n.lo
		} else {
			out[n.level] = true
			a = n.hi
		}
	}
	return out, nil
}

// String renders a small BDD as nested if-then-else text for debugging.
func (s *Store) String(a Ref) string {
	var b strings.Builder
	var walk func(r Ref)
	walk = func(r Ref) {
		switch r {
		case False:
			b.WriteString("F")
		case True:
			b.WriteString("T")
		default:
			n := s.nodes[r]
			b.WriteString("(x")
			b.WriteString(strconv.Itoa(int(n.level)))
			b.WriteString("?")
			walk(n.hi)
			b.WriteString(":")
			walk(n.lo)
			b.WriteString(")")
		}
	}
	walk(a)
	return b.String()
}
