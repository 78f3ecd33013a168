// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The atomic-predicate flow classifier (internal/headerspace) represents
// packet-header predicates as BDDs over header bits, following the approach
// of Yang & Lam that the APPLE paper adopts for traffic aggregation
// (§IV-A). The implementation uses the classic hash-consed node store with
// a memoized Apply, so structurally equal predicates share one canonical
// node and equality is a pointer comparison.
package bdd

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

// opKey memoizes binary Apply operations.
type opKey struct {
	op   uint8
	a, b Ref
}

// Binary operation codes for apply.
const (
	opAnd uint8 = iota + 1
	opOr
	opXor
	opDiff // a AND NOT b
)

// Store owns the node table for a family of BDDs that share a variable
// order. All Refs produced by a Store are only meaningful with that Store.
//
// Store is not safe for concurrent use.
type Store struct {
	nvars   int
	nodes   []node
	unique  map[node]Ref
	memo    map[opKey]Ref
	applies int
}

// NewStore creates a store for BDDs over nvars Boolean variables, with the
// variable order 0 < 1 < ... < nvars-1 from root to leaves.
func NewStore(nvars int) (*Store, error) {
	if nvars <= 0 {
		return nil, fmt.Errorf("bdd: nvars must be positive, got %d", nvars)
	}
	s := &Store{
		nvars:  nvars,
		nodes:  make([]node, 2, 1024),
		unique: make(map[node]Ref, 1024),
		memo:   make(map[opKey]Ref, 1024),
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

// Vars returns the number of variables the store was created with.
func (s *Store) Vars() int { return s.nvars }

// Size returns the number of canonical nodes allocated (including the two
// terminals).
func (s *Store) Size() int { return len(s.nodes) }

// Applies returns the number of Apply steps the store has computed: the
// recursive calls that neither a terminal rule nor the memo table
// answered. It is the deterministic unit of BDD work, which the
// complexity tests of the layers above count instead of wall time.
func (s *Store) Applies() int { return s.applies }

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules: equal children collapse, and duplicates are shared.
func (s *Store) mk(level int32, lo, hi Ref) Ref {
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

// Var returns the BDD for the single variable v (true when bit v is 1).
func (s *Store) Var(v int) (Ref, error) {
	if v < 0 || v >= s.nvars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, s.nvars)
	}
	return s.mk(int32(v), False, True), nil
}

// NVar returns the BDD for the negation of variable v.
func (s *Store) NVar(v int) (Ref, error) {
	if v < 0 || v >= s.nvars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, s.nvars)
	}
	return s.mk(int32(v), True, False), nil
}

// Not returns the complement of a.
func (s *Store) Not(a Ref) Ref {
	// XOR with true: cheap and reuses the memo table.
	return s.apply(opXor, a, True)
}

// And returns a ∧ b.
func (s *Store) And(a, b Ref) Ref { return s.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (s *Store) Or(a, b Ref) Ref { return s.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (s *Store) Xor(a, b Ref) Ref { return s.apply(opXor, a, b) }

// Diff returns a ∧ ¬b.
func (s *Store) Diff(a, b Ref) Ref { return s.apply(opDiff, a, b) }

// Implies reports whether a ⇒ b holds for all assignments.
func (s *Store) Implies(a, b Ref) bool { return s.Diff(a, b) == False }

// Equiv reports whether a and b denote the same Boolean function. Because
// nodes are canonical this is a constant-time comparison.
func (s *Store) Equiv(a, b Ref) bool { return a == b }

// apply computes the binary operation with memoization (Bryant's Apply).
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
	// Normalize commutative operations for better memo hit rates.
	if (op == opAnd || op == opOr || op == opXor) && a > b {
		a, b = b, a
	}
	key := opKey{op: op, a: a, b: b}
	if r, ok := s.memo[key]; ok {
		return r
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
	s.memo[key] = r
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

// Cube returns the conjunction of literals given by bits: for each pair
// (variable, value) the literal v or ¬v.
func (s *Store) Cube(lits map[int]bool) (Ref, error) {
	sorted := make([]Literal, 0, len(lits))
	for v, val := range lits {
		sorted = append(sorted, Literal{Var: v, Val: val})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Var < sorted[j].Var })
	return s.CubeLits(sorted)
}

// SatCount returns the number of satisfying assignments of a over all
// s.Vars() variables, as a float64 (exact for counts below 2^53).
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

// Eval evaluates the function at the given assignment. assignment must have
// at least s.Vars() entries; assignment[v] is the value of variable v.
func (s *Store) Eval(a Ref, assignment []bool) (bool, error) {
	if len(assignment) < s.nvars {
		return false, fmt.Errorf("bdd: assignment has %d entries, need %d", len(assignment), s.nvars)
	}
	for a != False && a != True {
		n := s.nodes[a]
		if assignment[n.level] {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True, nil
}

// EvalBits evaluates the function at the assignment packed into bits:
// variable v is bit 63-(v mod 64) of bits[v/64], so variable 0 is the most
// significant bit of the first word. bits must hold at least s.Vars() bits.
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
// Unconstrained variables are reported as false.
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

// NodeCount returns the number of distinct decision nodes reachable from a
// (excluding terminals); a measure of predicate complexity.
func (s *Store) NodeCount(a Ref) int {
	seen := make(map[Ref]struct{})
	var walk func(r Ref)
	walk = func(r Ref) {
		if r == False || r == True {
			return
		}
		if _, ok := seen[r]; ok {
			return
		}
		seen[r] = struct{}{}
		n := s.nodes[r]
		walk(n.lo)
		walk(n.hi)
	}
	walk(a)
	return len(seen)
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
