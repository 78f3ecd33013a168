package headerspace

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/apple-nfv/apple/internal/bdd"
)

// Atoms is the quadratic reference the incremental classifier is tested
// against: it refines the whole partition against every predicate in
// turn. The atom inside a predicate comes before the one outside it at
// every step, which is the documented class order, and puts the residual
// atom no predicate covers last.
func (s *Space) Atoms(preds []Predicate) ([]Predicate, error) {
	atoms := []Predicate{s.True()}
	for i, p := range preds {
		if p.sp != s {
			return nil, fmt.Errorf("headerspace: predicate %d from a different Space", i)
		}
		next := make([]Predicate, 0, len(atoms)*2)
		for _, a := range atoms {
			in := a.And(p)
			out := a.Diff(p)
			if !in.IsFalse() {
				next = append(next, in)
			}
			if !out.IsFalse() {
				next = append(next, out)
			}
		}
		atoms = next
	}
	return atoms, nil
}

// The predicate builders and readers below, and CheckPartition, are what
// the tests check the classifier with; production builds prefixes and
// exact matches and only classifies.

// Range returns the predicate lo ≤ f ≤ hi, decomposed internally into
// maximal aligned prefixes (the same decomposition the TCAM rule generator
// uses, so rule counts and predicate structure agree).
func (s *Space) Range(f Field, lo, hi uint32) (Predicate, error) {
	if lo > hi {
		return Predicate{}, fmt.Errorf("headerspace: empty range [%d,%d]", lo, hi)
	}
	w := f.width()
	if w == 0 {
		return Predicate{}, fmt.Errorf("headerspace: unknown field %v", f)
	}
	maxVal := uint64(1)<<uint(w) - 1
	if uint64(hi) > maxVal {
		return Predicate{}, fmt.Errorf("headerspace: range end %d exceeds %d-bit field %v", hi, w, f)
	}
	out := s.False()
	for _, pr := range RangeToPrefixes(lo, hi, w) {
		p, err := s.Prefix(f, pr.Value<<uint(w-pr.Len), pr.Len)
		if err != nil {
			return Predicate{}, err
		}
		out = out.Or(p)
	}
	return out, nil
}

// Diff returns p ∧ ¬q.
func (p Predicate) Diff(q Predicate) Predicate {
	return Predicate{sp: p.sp, ref: p.sp.store.Diff(p.ref, q.ref)}
}

// Matches reports whether the concrete header h satisfies p.
func (p Predicate) Matches(h Header) bool {
	w := h.words()
	return p.sp.store.EvalBits(p.ref, w[:])
}

// Example returns one concrete header matched by p, or an error when p is
// empty. Unconstrained bits are zero.
func (p Predicate) Example() (Header, error) {
	asg, err := p.sp.store.AnySat(p.ref)
	if err != nil {
		return Header{}, errors.New("headerspace: empty predicate has no example")
	}
	read := func(off, width int) uint32 {
		var v uint32
		for i := 0; i < width; i++ {
			v <<= 1
			if asg[off+i] {
				v |= 1
			}
		}
		return v
	}
	return Header{
		SrcIP:   read(srcIPOff, 32),
		DstIP:   read(dstIPOff, 32),
		Proto:   uint8(read(protoOff, 8)),
		SrcPort: uint16(read(srcPortOff, 16)),
		DstPort: uint16(read(dstPortOff, 16)),
	}, nil
}

// CIDR is a convenience wrapper building a dstIP or srcIP prefix predicate
// from CIDR notation.
func (s *Space) CIDR(f Field, cidr string) (Predicate, error) {
	addr, plen, err := ParseCIDR(cidr)
	if err != nil {
		return Predicate{}, err
	}
	return s.Prefix(f, addr, plen)
}

// CheckPartition verifies the defining properties of atomic predicates:
// atoms are pairwise disjoint, non-empty, their union is the full space,
// and every input predicate equals the union of the atoms it covers. It
// also checks the classifier's own bookkeeping against them: classes in
// signature order, each signature equal to the predicates that cover the
// atom, and each index slice equal to the union of the atoms it should
// hold.
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

// False returns the empty predicate.
func (s *Space) False() Predicate { return Predicate{sp: s, ref: bdd.False} }

// IsTrue reports whether p matches every header.
func (p Predicate) IsTrue() bool { return p.ref == bdd.True }

// Equal reports whether p and q denote the same header set.
func (p Predicate) Equal(q Predicate) bool { return p.sp == q.sp && p.ref == q.ref }

// Overlaps reports whether p and q share any header.
func (p Predicate) Overlaps(q Predicate) bool { return !p.And(q).IsFalse() }

// ParseCIDR parses "a.b.c.d/len" into the network address and prefix
// length.
func ParseCIDR(s string) (addr uint32, plen int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("headerspace: bad CIDR %q: missing /", s)
	}
	addr, err = ParseIPv4(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	plen, err = strconv.Atoi(s[slash+1:])
	if err != nil || plen < 0 || plen > 32 {
		return 0, 0, fmt.Errorf("headerspace: bad CIDR %q: bad prefix length", s)
	}
	return addr, plen, nil
}
