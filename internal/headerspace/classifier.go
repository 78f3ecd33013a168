package headerspace

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"github.com/apple-nfv/apple/internal/bdd"
)

// ErrForeignSpace reports a predicate built by a different Space than the
// classifier's; its BDD reference means nothing in this store.
var ErrForeignSpace = errors.New("headerspace: predicate from a different Space")

// Classifier maps concrete headers to equivalence-class IDs. Classes are
// the atomic predicates of the input predicate set (Yang & Lam, Theorem
// 1): the unique coarsest partition of the header space such that every
// input predicate is a disjoint union of atoms. Two headers get the same
// class ID exactly when no input predicate distinguishes them — the
// aggregation granularity the APPLE Optimization Engine runs on (§IV-A).
//
// The partition is built incrementally: each predicate in turn splits only
// the atoms it overlaps. Every atom carries its
// signature, the indexes of the predicates that cover it. Classes are
// numbered in signature order: at the first predicate that tells two
// atoms apart, the atom inside it comes first, so the residual atom no
// predicate covers, if non-empty, is always last. A rebuild from the
// same predicates in the same order numbers the classes identically.
//
// Atoms are found through a bit-sliced index: slices[k] is the union of
// the atoms whose internal id has bit k set, so evaluating the ⌈log₂ n⌉
// slices at a header spells out the id of the atom that holds it, and
// restricting a predicate slice by slice enumerates the atoms it
// overlaps without touching the others.
//
// NewClassifier writes to the Space, which is not safe for concurrent
// use. Classify, Atom, Membership and NumClasses only read, so any number
// of goroutines may call them while no one writes to the Space.
type Classifier struct {
	sp    *Space
	preds []Predicate

	// atoms is indexed by internal id; an id, once given, is never
	// freed, and every atom is non-empty.
	atoms  []atom
	slices []bdd.Ref

	// order lists the ids in class order and rank is its inverse.
	order []int32
	rank  []int32

	// residual is the id of the atom no predicate covers, -1 when the
	// predicates cover the whole space.
	residual int32
}

// atom is one equivalence class: its header set and its signature, the
// ascending indexes of the predicates that cover it.
type atom struct {
	ref bdd.Ref
	sig []int32
}

// sigBefore is the class order on signatures.
func sigBefore(a, b []int32) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) > len(b)
}

// NewClassifier returns the classifier over preds, refining the partition
// by each predicate in turn. A predicate disjoint from every earlier one
// costs a constant number of BDD operations per index slice; otherwise the
// cost follows the number of atoms it overlaps, not the number of atoms.
// All predicates must come from sp.
func NewClassifier(sp *Space, preds []Predicate) (*Classifier, error) {
	if sp == nil {
		return nil, errors.New("headerspace: classifier: nil Space")
	}
	// One atom, id 0, holding every header: the residual of no predicates.
	c := &Classifier{sp: sp, atoms: make([]atom, 1, len(preds)+1), residual: 0}
	c.atoms[0].ref = bdd.True
	sp.store.Reserve(sp.store.Size() + buildNodes(sp.store, preds))
	for i, p := range preds {
		if err := c.add(p); err != nil {
			return nil, fmt.Errorf("headerspace: classifier: predicate %d: %w", i, err)
		}
	}
	c.reorder()
	return c, nil
}

// buildNodes estimates the BDD nodes NewClassifier creates for preds, so
// the store is sized once instead of doubling its way up. Adding a
// predicate rewrites the residual atom (one Diff) and, when the predicate
// meets no earlier one, moves it into the index slices whose bit its new
// id sets (one Or each; the ids 1, 2, ... are handed out in order). A
// rewrite by a predicate makes new nodes only along the predicate's own
// paths and reuses the ones it shares with earlier predicates, so on
// average it makes the predicate's share P/n of the P distinct nodes the
// n predicates span. The estimate is
//
//	P/n · Σ_{id=1..n} (1 + popcount(id))
//
// It is within 1 % for disjoint prefixes (300 class /20s: 20 350
// estimated, 20 206 made). Predicates that overlap split more atoms and
// grow the store past it, as every store grows past a reservation.
func buildNodes(st *bdd.Store, preds []Predicate) int {
	n := len(preds)
	if n == 0 {
		return 0
	}
	roots := make([]bdd.Ref, n)
	for i, p := range preds {
		roots[i] = p.ref
	}
	rewrites := 0
	for id := 1; id <= n; id++ {
		rewrites += 1 + bits.OnesCount(uint(id))
	}
	return st.Nodes(roots) * rewrites / n
}

// add appends p to the predicate set, splitting the atoms it cuts. It
// leaves the classes unnumbered, so a fold pays for one reorder.
func (c *Classifier) add(p Predicate) error {
	if p.sp != c.sp {
		return ErrForeignSpace
	}
	pi := int32(len(c.preds))
	c.preds = append(c.preds, p)
	// Containment in the residual first: a predicate that meets no
	// earlier one splits that atom alone, and the index is not consulted.
	if c.residual >= 0 && !p.IsFalse() && c.sp.store.Implies(p.ref, c.atoms[c.residual].ref) {
		c.split(c.residual, p.ref, pi)
		return nil
	}
	// The hits are collected before any split: a split moves headers
	// between ids, which would send the walk over them a second time.
	for _, h := range c.overlaps(p.ref, len(c.slices)-1, 0, nil) {
		c.split(h.id, h.in, pi)
	}
	return nil
}

// hit is one atom a predicate overlaps and the headers they share.
type hit struct {
	id int32
	in bdd.Ref
}

// overlaps appends to out the atoms q overlaps among those whose id
// agrees with id above bit k, restricting q by one slice per level.
func (c *Classifier) overlaps(q bdd.Ref, k int, id int32, out []hit) []hit {
	if q == bdd.False {
		return out
	}
	if k < 0 {
		return append(out, hit{id: id, in: q})
	}
	st := c.sp.store
	in := st.And(q, c.slices[k])
	out = c.overlaps(in, k-1, id|1<<uint(k), out)
	switch in {
	case q:
		return out
	case bdd.False:
		return c.overlaps(q, k-1, id, out)
	}
	return c.overlaps(st.Diff(q, c.slices[k]), k-1, id, out)
}

// split records that predicate pi covers the headers in, all of which lie
// in atom id: the atom joins pi whole, or gives them up to a new atom.
func (c *Classifier) split(id int32, in bdd.Ref, pi int32) {
	if a := &c.atoms[id]; in == a.ref {
		a.sig = append(a.sig, pi)
		if id == c.residual {
			c.residual = -1
		}
		return
	}
	// The part inside the predicate takes the new id: it is the small
	// one, and the index update costs in proportion to what moves.
	nid := c.alloc()
	a := &c.atoms[id]
	sig := make([]int32, len(a.sig)+1)
	copy(sig, a.sig)
	sig[len(a.sig)] = pi
	c.atoms[nid] = atom{ref: in, sig: sig}
	a.ref = c.sp.store.Diff(a.ref, in)
	c.move(in, id, nid)
}

// alloc returns an unused atom id, widening the index when it needs a
// new bit.
func (c *Classifier) alloc() int32 {
	id := int32(len(c.atoms))
	c.atoms = append(c.atoms, atom{})
	for len(c.slices) < bits.Len32(uint32(id)) {
		c.slices = append(c.slices, bdd.False)
	}
	return id
}

// move re-indexes the headers ref from atom id from to atom id to.
func (c *Classifier) move(ref bdd.Ref, from, to int32) {
	st := c.sp.store
	for k := range c.slices {
		switch f, t := from>>uint(k)&1, to>>uint(k)&1; {
		case t > f:
			c.slices[k] = st.Or(c.slices[k], ref)
		case t < f:
			c.slices[k] = st.Diff(c.slices[k], ref)
		}
	}
}

// reorder numbers the classes: atoms in signature order.
func (c *Classifier) reorder() {
	c.order = c.order[:0]
	for id := range c.atoms {
		c.order = append(c.order, int32(id))
	}
	sort.Slice(c.order, func(x, y int) bool {
		return sigBefore(c.atoms[c.order[x]].sig, c.atoms[c.order[y]].sig)
	})
	if cap(c.rank) < len(c.atoms) {
		c.rank = make([]int32, len(c.atoms), cap(c.atoms))
	}
	c.rank = c.rank[:len(c.atoms)]
	for i, id := range c.order {
		c.rank[id] = int32(i)
	}
}

// NumClasses returns the number of atoms (equivalence classes).
func (c *Classifier) NumClasses() int { return len(c.order) }

// class returns the atom numbered i.
func (c *Classifier) class(i int) (*atom, error) {
	if i < 0 || i >= len(c.order) {
		return nil, fmt.Errorf("headerspace: class %d out of range [0,%d)", i, len(c.order))
	}
	return &c.atoms[c.order[i]], nil
}

// Atom returns the predicate of class i.
func (c *Classifier) Atom(i int) (Predicate, error) {
	a, err := c.class(i)
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{sp: c.sp, ref: a.ref}, nil
}

// Classify returns the class ID of header h. Every header belongs to
// exactly one atom, so this always succeeds. It walks one BDD per index
// slice, reading the header's bits in place.
//
//apple:noalloc
func (c *Classifier) Classify(h Header) int {
	w := h.words()
	id := 0
	for k, s := range c.slices {
		if c.sp.store.EvalBits(s, w[:]) {
			id |= 1 << uint(k)
		}
	}
	return int(c.rank[id])
}

// Membership returns, for class i, the indexes of the input predicates
// that cover it. Because atoms are atomic, a predicate either covers an
// atom entirely or is disjoint from it; this is the class's signature.
func (c *Classifier) Membership(i int) ([]int, error) {
	a, err := c.class(i)
	if err != nil || len(a.sig) == 0 {
		return nil, err
	}
	out := make([]int, len(a.sig))
	for k, pi := range a.sig {
		out[k] = int(pi)
	}
	return out, nil
}

// Overlap is one class a predicate overlaps and the headers they share.
type Overlap struct {
	Class int
	Pred  Predicate
}

// Overlapping returns the classes p overlaps, in class order, each with
// its intersection with p. It finds them through the index, at a cost
// that follows their number rather than NumClasses.
func (c *Classifier) Overlapping(p Predicate) ([]Overlap, error) {
	if p.sp != c.sp {
		return nil, ErrForeignSpace
	}
	hits := c.overlaps(p.ref, len(c.slices)-1, 0, nil)
	out := make([]Overlap, len(hits))
	for i, h := range hits {
		out[i] = Overlap{Class: int(c.rank[h.id]), Pred: Predicate{sp: c.sp, ref: h.in}}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].Class < out[y].Class })
	return out, nil
}
