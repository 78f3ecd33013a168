package headerspace

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/apple-nfv/apple/internal/bdd"
)

// ErrForeignSpace reports a predicate built by a different Space than the
// classifier's; its BDD reference means nothing in this store.
var ErrForeignSpace = errors.New("headerspace: predicate from a different Space")

// ErrNoPredicate reports a predicate index outside the classifier's set.
var ErrNoPredicate = errors.New("headerspace: no such predicate")

// Classifier maps concrete headers to equivalence-class IDs. Classes are
// the atomic predicates of the input predicate set (Yang & Lam, Theorem
// 1): the unique coarsest partition of the header space such that every
// input predicate is a disjoint union of atoms. Two headers get the same
// class ID exactly when no input predicate distinguishes them — the
// aggregation granularity the APPLE Optimization Engine runs on (§IV-A).
//
// The partition is maintained incrementally: Add refines and Remove
// merges only the atoms the predicate overlaps. Every atom carries its
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
// Add and Remove write to the Space and are not safe for concurrent use.
// Classify, Atom, Membership and NumClasses only read, so
// any number of goroutines may call them while no one mutates the
// classifier or its Space.
type Classifier struct {
	sp    *Space
	preds []Predicate

	// atoms is indexed by internal id. Ids are stable across Add and
	// Remove; a freed id has ref bdd.False and waits on free for reuse.
	atoms  []atom
	free   []int32
	slices []bdd.Ref

	// order lists the live ids in class order and rank is its inverse.
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

// NewClassifier returns the classifier over preds: the fold of Add over
// them. All predicates must come from sp.
func NewClassifier(sp *Space, preds []Predicate) (*Classifier, error) {
	if sp == nil {
		return nil, errors.New("headerspace: classifier: nil Space")
	}
	// One atom, id 0, holding every header: the residual of no predicates.
	c := &Classifier{sp: sp, atoms: []atom{{ref: bdd.True}}, residual: 0}
	for i, p := range preds {
		if err := c.add(p); err != nil {
			return nil, fmt.Errorf("headerspace: classifier: predicate %d: %w", i, err)
		}
	}
	c.reorder()
	return c, nil
}

// Add appends p to the predicate set, splitting the atoms it cuts, and
// returns its index. A predicate disjoint from every earlier one costs a
// constant number of BDD operations per index slice; otherwise the cost
// follows the number of atoms p overlaps, not the number of atoms.
func (c *Classifier) Add(p Predicate) (int, error) {
	if err := c.add(p); err != nil {
		return 0, err
	}
	c.reorder()
	return len(c.preds) - 1, nil
}

// add is Add without the renumbering, so a fold pays for one sort.
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
	if n := len(c.free); n > 0 {
		id := c.free[n-1]
		c.free = c.free[:n-1]
		return id
	}
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

// reorder renumbers the classes: live atoms in signature order.
func (c *Classifier) reorder() {
	c.order = c.order[:0]
	for id := range c.atoms {
		if c.atoms[id].ref != bdd.False {
			c.order = append(c.order, int32(id))
		}
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

// Remove deletes predicate i from the set, merging the atoms only it
// told apart; later predicates move down one index. The Space keeps the
// BDD nodes of the merged atoms: a Space only grows.
func (c *Classifier) Remove(i int) error {
	if i < 0 || i >= len(c.preds) {
		return fmt.Errorf("%w: %d of %d", ErrNoPredicate, i, len(c.preds))
	}
	c.preds = slices.Delete(c.preds, i, i+1)
	var inside []int32 // the atoms predicate i covered
	for id := range c.atoms {
		a := &c.atoms[id]
		k, covered := slices.BinarySearch(a.sig, int32(i))
		if covered {
			a.sig = slices.Delete(a.sig, k, k+1)
			inside = append(inside, int32(id))
		}
		for ; k < len(a.sig); k++ {
			a.sig[k]--
		}
	}
	// An atom that lost i now shares its signature with at most one
	// other atom, the one that differed from it only outside i; equal
	// signatures sort next to each other.
	c.reorder()
	merged := false
	for _, id := range inside {
		for _, r := range [2]int{int(c.rank[id]) - 1, int(c.rank[id]) + 1} {
			if r < 0 || r >= len(c.order) {
				continue
			}
			twin := c.order[r]
			if c.atoms[twin].ref == bdd.False || !slices.Equal(c.atoms[id].sig, c.atoms[twin].sig) {
				continue // merged away already, or a different class
			}
			// The atom inside the predicate moves: it is the small one.
			c.atoms[twin].ref = c.sp.store.Or(c.atoms[twin].ref, c.atoms[id].ref)
			c.move(c.atoms[id].ref, id, twin)
			c.atoms[id] = atom{}
			c.free = append(c.free, id)
			merged = true
			break
		}
	}
	if merged {
		c.reorder()
	}
	c.residual = -1
	if last := c.order[len(c.order)-1]; len(c.atoms[last].sig) == 0 {
		c.residual = last
	}
	return nil
}

// NumPredicates returns the size of the predicate set.
func (c *Classifier) NumPredicates() int { return len(c.preds) }

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

// CheckPartition verifies the defining properties of atomic predicates:
// atoms are pairwise disjoint, non-empty, their union is the full space,
// and every input predicate equals the union of the atoms it covers. It
// also checks the classifier's own bookkeeping against them: classes in
// signature order, each signature equal to the predicates that cover the
// atom, and each index slice equal to the union of the atoms it should
// hold. It is used by tests and available as a runtime self-check.
func (c *Classifier) CheckPartition() error {
	union := c.sp.False()
	want := make([]Predicate, len(c.slices))
	for k := range want {
		want[k] = c.sp.False()
	}
	for i, id := range c.order {
		a := Predicate{sp: c.sp, ref: c.atoms[id].ref}
		if a.IsFalse() {
			return fmt.Errorf("headerspace: atom %d is empty", i)
		}
		if union.Overlaps(a) {
			return fmt.Errorf("headerspace: atom %d overlaps earlier atoms", i)
		}
		union = union.Or(a)
		if i > 0 && !sigBefore(c.atoms[c.order[i-1]].sig, c.atoms[id].sig) {
			return fmt.Errorf("headerspace: atoms %d and %d out of signature order", i-1, i)
		}
		if int(c.rank[id]) != i {
			return fmt.Errorf("headerspace: atom %d ranked %d", i, c.rank[id])
		}
		if (len(c.atoms[id].sig) == 0) != (id == c.residual) {
			return fmt.Errorf("headerspace: atom %d: residual is id %d", i, c.residual)
		}
		for k := range want {
			if id>>uint(k)&1 != 0 {
				want[k] = want[k].Or(a)
			}
		}
	}
	if !union.IsTrue() {
		return fmt.Errorf("headerspace: atoms do not cover the header space")
	}
	for k, s := range c.slices {
		if s != want[k].ref {
			return fmt.Errorf("headerspace: index slice %d is not the union of its atoms", k)
		}
	}
	for j, p := range c.preds {
		rebuilt := c.sp.False()
		for i, id := range c.order {
			a := Predicate{sp: c.sp, ref: c.atoms[id].ref}
			_, member := slices.BinarySearch(c.atoms[id].sig, int32(j))
			if p.Covers(a) != member {
				return fmt.Errorf("headerspace: atom %d signature wrong about predicate %d", i, j)
			}
			if member {
				rebuilt = rebuilt.Or(a)
			}
		}
		if !rebuilt.Equal(p) {
			return fmt.Errorf("headerspace: predicate %d is not a union of atoms", j)
		}
	}
	return nil
}
