// Package headerspace models packet headers and header-space predicates for
// APPLE's traffic aggregation (§IV-A). Flows are aggregated into
// equivalence classes using atomic predicates in the style of Yang & Lam
// [44] and AP Classifier [42]: predicates over the 5-tuple are represented
// as BDDs, and the atoms of the Boolean algebra they generate are the
// coarsest flow classes on which every predicate is constant.
package headerspace

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/apple-nfv/apple/internal/bdd"
)

// Field identifies one of the 5-tuple packet header fields.
type Field int

// The five matchable header fields.
const (
	FieldSrcIP Field = iota + 1
	FieldDstIP
	FieldProto
	FieldSrcPort
	FieldDstPort
)

// String returns the field's conventional name.
func (f Field) String() string {
	switch f {
	case FieldSrcIP:
		return "srcIP"
	case FieldDstIP:
		return "dstIP"
	case FieldProto:
		return "proto"
	case FieldSrcPort:
		return "srcPort"
	case FieldDstPort:
		return "dstPort"
	default:
		return fmt.Sprintf("Field(%d)", int(f))
	}
}

// Bit layout of the 104-bit header vector. Bits are allocated most
// significant first within each field so that CIDR prefixes constrain a
// contiguous run of the highest-order BDD variables, which keeps prefix
// predicates linear in prefix length.
const (
	srcIPOff   = 0
	dstIPOff   = 32
	protoOff   = 64
	srcPortOff = 72
	dstPortOff = 88
	totalBits  = 104
)

// width returns the bit width of a field.
func (f Field) width() int {
	switch f {
	case FieldSrcIP, FieldDstIP:
		return 32
	case FieldProto:
		return 8
	case FieldSrcPort, FieldDstPort:
		return 16
	default:
		return 0
	}
}

// offset returns the index of the field's most significant bit in the
// header vector.
func (f Field) offset() int {
	switch f {
	case FieldSrcIP:
		return srcIPOff
	case FieldDstIP:
		return dstIPOff
	case FieldProto:
		return protoOff
	case FieldSrcPort:
		return srcPortOff
	case FieldDstPort:
		return dstPortOff
	default:
		return -1
	}
}

// Header is a concrete 5-tuple packet header.
type Header struct {
	SrcIP   uint32
	DstIP   uint32
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// words packs the header into the assignment bdd.Store.EvalBits reads:
// header bit v is bit 63-(v mod 64) of word v/64, which with the layout
// above is two shifts per field and no allocation.
//
//apple:noalloc
func (h Header) words() [2]uint64 {
	return [2]uint64{
		uint64(h.SrcIP)<<(64-srcIPOff-32) | uint64(h.DstIP)<<(64-dstIPOff-32),
		uint64(h.Proto)<<(128-protoOff-8) | uint64(h.SrcPort)<<(128-srcPortOff-16) | uint64(h.DstPort)<<(128-dstPortOff-16),
	}
}

// Well-known protocol numbers.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoICMP = 1
)

// Space is a factory for predicates that share one BDD store. All
// predicates combined together must come from the same Space.
//
// Building or combining predicates writes to the shared store, so a Space
// is not safe for concurrent use. Evaluating them (Predicate.Matches,
// Classifier.Classify) only reads: any number of goroutines may do so
// while none builds.
type Space struct {
	store *bdd.Store
}

// NewSpace creates a fresh predicate space over the 104-bit 5-tuple.
func NewSpace() *Space {
	return &Space{store: bdd.MustNewStore(totalBits)}
}

// Predicate is a set of headers, represented canonically as a BDD.
// Predicates are immutable values; combinators return new predicates.
type Predicate struct {
	sp  *Space
	ref bdd.Ref
}

// True returns the predicate matching every header.
func (s *Space) True() Predicate { return Predicate{sp: s, ref: bdd.True} }

// False returns the empty predicate.
func (s *Space) False() Predicate { return Predicate{sp: s, ref: bdd.False} }

// Prefix returns the predicate fixing the top plen bits of field f to the
// top plen bits of value. plen of 0 matches everything; plen equal to the
// field width is an exact match.
func (s *Space) Prefix(f Field, value uint32, plen int) (Predicate, error) {
	w := f.width()
	if w == 0 {
		return Predicate{}, fmt.Errorf("headerspace: unknown field %v", f)
	}
	if plen < 0 || plen > w {
		return Predicate{}, fmt.Errorf("headerspace: prefix length %d out of [0,%d] for %v", plen, w, f)
	}
	if w < 32 && value >= 1<<uint(w) {
		return Predicate{}, fmt.Errorf("headerspace: value %d out of range for %d-bit field %v", value, w, f)
	}
	var lits [32]bdd.Literal
	off := f.offset()
	for i := 0; i < plen; i++ {
		lits[i] = bdd.Literal{Var: off + i, Val: value&(1<<uint(w-1-i)) != 0}
	}
	ref, err := s.store.CubeLits(lits[:plen])
	if err != nil {
		return Predicate{}, fmt.Errorf("headerspace: building prefix: %w", err)
	}
	return Predicate{sp: s, ref: ref}, nil
}

// Exact returns the predicate matching field f equal to value.
func (s *Space) Exact(f Field, value uint32) (Predicate, error) {
	return s.Prefix(f, value, f.width())
}

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

// PrefixBlock is an aligned value block: the Len top bits of a w-bit field
// equal Value (Value is right-aligned, i.e. the prefix bits only).
type PrefixBlock struct {
	Value uint32 // the prefix bits, right-aligned
	Len   int    // number of fixed leading bits
}

// RangeToPrefixes decomposes the inclusive integer range [lo,hi] over a
// w-bit field into the minimal set of aligned prefix blocks, in ascending
// order. This is the classic range-to-CIDR expansion.
func RangeToPrefixes(lo, hi uint32, w int) []PrefixBlock {
	var out []PrefixBlock
	l, h := uint64(lo), uint64(hi)
	for l <= h {
		// The largest aligned block starting at l that fits within [l,h].
		size := uint64(1)
		for {
			next := size * 2
			if l%next != 0 || l+next-1 > h {
				break
			}
			size = next
		}
		plen := w
		for s := size; s > 1; s /= 2 {
			plen--
		}
		out = append(out, PrefixBlock{Value: uint32(l >> uint(w-plen)), Len: plen})
		l += size
		if l == 0 {
			break // wrapped past the top of the field
		}
	}
	return out
}

// And returns the conjunction of p and q.
func (p Predicate) And(q Predicate) Predicate {
	return Predicate{sp: p.sp, ref: p.sp.store.And(p.ref, q.ref)}
}

// Or returns the disjunction of p and q.
func (p Predicate) Or(q Predicate) Predicate {
	return Predicate{sp: p.sp, ref: p.sp.store.Or(p.ref, q.ref)}
}

// Not returns the complement of p.
func (p Predicate) Not() Predicate {
	return Predicate{sp: p.sp, ref: p.sp.store.Not(p.ref)}
}

// Diff returns p ∧ ¬q.
func (p Predicate) Diff(q Predicate) Predicate {
	return Predicate{sp: p.sp, ref: p.sp.store.Diff(p.ref, q.ref)}
}

// IsFalse reports whether p matches no header.
func (p Predicate) IsFalse() bool { return p.ref == bdd.False }

// IsTrue reports whether p matches every header.
func (p Predicate) IsTrue() bool { return p.ref == bdd.True }

// Equal reports whether p and q denote the same header set.
func (p Predicate) Equal(q Predicate) bool { return p.sp == q.sp && p.ref == q.ref }

// Overlaps reports whether p and q share any header.
func (p Predicate) Overlaps(q Predicate) bool { return !p.And(q).IsFalse() }

// Covers reports whether every header in q is in p.
func (p Predicate) Covers(q Predicate) bool { return p.sp.store.Implies(q.ref, p.ref) }

// Fraction returns the fraction of the full header space that p matches.
func (p Predicate) Fraction() float64 {
	return math.Ldexp(p.sp.store.SatCount(p.ref), -totalBits)
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

// Complexity returns the BDD node count of p, a proxy for how many TCAM
// rules p needs when compiled without tagging.
func (p Predicate) Complexity() int { return p.sp.store.NodeCount(p.ref) }

// ParseIPv4 parses dotted-quad notation into a host-order uint32.
func ParseIPv4(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("headerspace: bad IPv4 %q", s)
	}
	var v uint32
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("headerspace: bad IPv4 %q: %w", s, err)
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// FormatIPv4 renders a host-order uint32 as dotted-quad notation.
func FormatIPv4(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff)
}

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

// CIDR is a convenience wrapper building a dstIP or srcIP prefix predicate
// from CIDR notation.
func (s *Space) CIDR(f Field, cidr string) (Predicate, error) {
	addr, plen, err := ParseCIDR(cidr)
	if err != nil {
		return Predicate{}, err
	}
	return s.Prefix(f, addr, plen)
}
