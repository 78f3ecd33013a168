package flowtable

import (
	"slices"
	"sort"
)

// This file is the compiled data plane: an immutable, cache-friendly
// matcher over a table's installed rules, published atomically so Lookup
// and Pipeline.Process never take a lock, and derived from its
// predecessor incrementally so publishing costs what the batch changed,
// not what the table holds.
//
// The linear scan in LookupLinear emulates a TCAM faithfully but pays
// O(rules) pointer-chasing work per packet. The compiled form uses
// tuple-space partitioning (the classic software-OpenFlow decomposition):
// rules are grouped by *match shape* — which of the eight fields are
// concrete and, for the two prefix fields, the prefix length — so every
// rule within a tuple is an exact match over the same field subset. A
// packet then probes one packed key per tuple instead of one ternary
// comparison per rule, making lookup cost a function of distinct shapes
// (a handful, per Table III) rather than rule count.
//
// Tie-breaking is a property of the rules, not of where they are stored:
// every installed rule is one entry (order.go) carrying its priority and
// its per-table install sequence number, neither of which ever changes,
// and a lookup returns the matching entry that comes first in (priority
// descending, sequence ascending) order — the same rule the linear
// scan's least-ranked hit finds, byte for byte.
//
// A snapshot is a short slice of pointers to tuple headers. A mutation
// clones that slice (one pointer per shape), copies the header of each
// tuple the batch touches, on first touch, and shares the rest: a small
// tuple is two short parallel slices copied whole, a large one a
// persistent hash trie (trie.go) of which only the arrays the change
// writes are copied — at the root, the one page of four children its
// path passes through.

// matchKey packs every concrete field value of one shape into three
// comparable machine words. Fields the shape treats as wildcards stay
// zero on both the rule side and the packet side, so equality of keys is
// exactly "the packet satisfies every concrete field". The packing is
// the arena/SoA representation of Match: a rule's 32-byte Match, prefix
// lengths included, collapses into this 24-byte value plus the tuple's
// shape. A slice tuple stores its rules' keys in one contiguous
// slice; a trie tuple stores none and packs a slot's key from the slot's
// entry when a probe reaches it.
type matchKey struct {
	lo   uint64 // src addr (32, masked) | dst addr (32, masked) << 32
	hi   uint64 // hostTag | subTag<<16 | proto<<24 | srcPort<<32 | dstPort<<48
	port int64  // InPort, full int range
}

// shapeKey identifies a tuple: the concrete-field mask plus the two
// prefix lengths (1..32; a prefix that is unset or of length ≤ 0 is a
// wildcard and contributes no bit).
type shapeKey struct {
	mask           Field
	srcLen, dstLen int8
}

// clampLen normalizes a Prefix.Len to the effective number of compared
// bits: Contains treats Len <= 0 as match-everything and Len >= 32 as
// full-address equality. A Match stores its prefix lengths clamped.
func clampLen(l int) int8 {
	if l <= 0 {
		return 0
	}
	if l >= 32 {
		return 32
	}
	return int8(l)
}

// prefixMask returns the 32-bit mask selecting the top l bits, l in
// 0..32: a shift by 32 leaves no bit, so a length of 0 masks everything.
//
//apple:noalloc
func prefixMask(l int8) uint32 {
	return ^uint32(0) << (32 - uint(l))
}

// shapeOf extracts a match's shape: its presence mask, less any prefix
// that matches everything.
func shapeOf(m Match) shapeKey {
	s := shapeKey{mask: m.set &^ (FieldSrc | FieldDst)}
	if m.Has(FieldSrc) && m.srcLen > 0 {
		s.mask |= FieldSrc
		s.srcLen = m.srcLen
	}
	if m.Has(FieldDst) && m.dstLen > 0 {
		s.mask |= FieldDst
		s.dstLen = m.dstLen
	}
	return s
}

// ruleKey packs the concrete field values of a match whose shape is s
// (shapeOf(m)). Prefix addresses are masked to the compared bits so rules
// whose spare low bits differ still collide onto one key, mirroring
// Prefix.Contains. A trie slot's key is packed this way again on every
// probe that reaches it (trieSlot.key), so it takes no branch and no copy
// of the match, and is small enough to inline.
//
//apple:noalloc
func ruleKey(m *Match, s shapeKey) matchKey {
	return matchKey{
		// A prefix s leaves open has length 0 there, and so an empty mask.
		lo: uint64(m.srcAddr&prefixMask(s.srcLen)) |
			uint64(m.dstAddr&prefixMask(s.dstLen))<<32,
		// Every other field s leaves open is a wildcard of m's, and so zero.
		hi: uint64(m.hostTag) | uint64(m.subTag)<<16 | uint64(m.proto)<<24 |
			uint64(m.srcPort)<<32 | uint64(m.dstPort)<<48,
		port: int64(m.inPort),
	}
}

// tupleHashCutoff is the rule count above which a tuple switches from a
// contiguous key scan to a hash trie. Small tuples stay as flat slices: a
// handful of 24-byte equality tests over contiguous memory beats a trie
// probe, and most shapes (routing, host-match, pass-by) hold only a few
// rules per table. A trie shrinking to half the cutoff goes back to
// slices; the gap keeps a tuple hovering at the cutoff from converting on
// every mutation.
const tupleHashCutoff = 8

// tuple is one match shape's compiled rule set: (keys,ents) for a slice
// tuple, root for a trie tuple. Field order follows what a probe reads:
// the shape and bound every probe needs, then the root's bitmaps and its
// sixteen page pointers (a large trie's root holds only children, so a
// probe reads one of them and skips the root's data), then the
// slice-tuple fields.
type tuple struct {
	srcMask, dstMask uint32
	shape            shapeKey
	trie             bool
	// bound is no later in match order than any rule of the tuple: the
	// best outcome a probe of this tuple can produce. Tuples are sorted by
	// it, so a lookup stops as soon as the current winner beats every
	// remaining tuple. It is exact for a slice tuple and after an insert;
	// removing a trie tuple's best rule leaves it optimistic (finding the
	// next best would mean walking the whole trie), which costs at most a
	// wasted probe and never a wrong answer.
	bound rank
	root  trieRoot   // trie tuples
	keys  []matchKey // slice tuples: packed rule keys, match order
	ents  []*entry   // the rule under each key
	n     int        // rules in the tuple
	// gen is the draft generation that allocated this header; that draft
	// edits it in place, any later one copies it first.
	gen uint64
}

func newTuple(gen uint64, s shapeKey) *tuple {
	return &tuple{shape: s, gen: gen, srcMask: prefixMask(s.srcLen), dstMask: prefixMask(s.dstLen)}
}

// packetKey packs the packet fields this tuple's shape compares. It is
// the hot-path twin of ruleKey: pure arithmetic, no branches on rule
// data, no allocation.
//
//apple:noalloc
func (t *tuple) packetKey(p *Packet) matchKey {
	var k matchKey
	m := t.shape.mask
	if m&FieldSrc != 0 {
		k.lo = uint64(p.Hdr.SrcIP & t.srcMask)
	}
	if m&FieldDst != 0 {
		k.lo |= uint64(p.Hdr.DstIP&t.dstMask) << 32
	}
	if m&FieldHostTag != 0 {
		k.hi = uint64(p.HostTag)
	}
	if m&FieldSubTag != 0 {
		k.hi |= uint64(p.SubTag) << 16
	}
	if m&FieldProto != 0 {
		k.hi |= uint64(p.Hdr.Proto) << 24
	}
	if m&FieldSrcPort != 0 {
		k.hi |= uint64(p.Hdr.SrcPort) << 32
	}
	if m&FieldDstPort != 0 {
		k.hi |= uint64(p.Hdr.DstPort) << 48
	}
	if m&FieldInPort != 0 {
		k.port = int64(p.InPort)
	}
	return k
}

// add indexes e under key k; dups is the table's duplicate index.
func (t *tuple) add(gen uint64, k matchKey, e *entry, dups *dupIndex) {
	if r := e.rank(); t.n == 0 || r.before(t.bound) {
		t.bound = r
	}
	t.n++
	if t.trie {
		t.root.insert(gen, k.hash(), k, t.shape, e, dups)
		return
	}
	// A slice tuple's slices are shared with published snapshots and at
	// most tupleHashCutoff long: every change builds new ones.
	i := sort.Search(len(t.ents), func(i int) bool { return e.before(t.ents[i]) })
	t.keys = slices.Concat(t.keys[:i], []matchKey{k}, t.keys[i:])
	t.ents = slices.Concat(t.ents[:i], []*entry{e}, t.ents[i:])
	if len(t.ents) > tupleHashCutoff {
		for j, x := range t.ents {
			t.root.insert(gen, t.keys[j].hash(), t.keys[j], t.shape, x, dups)
		}
		t.keys, t.ents, t.trie = nil, nil, true
	}
}

// remove drops e (by identity), which the tuple holds under key k; dups
// is the table's duplicate index.
func (t *tuple) remove(gen uint64, k matchKey, e *entry, dups *dupIndex) {
	t.n--
	switch {
	case !t.trie:
		i := slices.Index(t.ents, e)
		t.keys = slices.Concat(t.keys[:i], t.keys[i+1:])
		t.ents = slices.Concat(t.ents[:i], t.ents[i+1:])
	case t.n > tupleHashCutoff/2:
		t.root.remove(gen, k.hash(), k, t.shape, e, dups)
		return // bound stays, possibly optimistic
	default:
		// Back to slices: collect what is left, in match order. A slice
		// tuple keeps every rule itself, so the duplicates leave dups.
		t.root.remove(gen, k.hash(), k, t.shape, e, dups)
		t.ents = make([]*entry, 0, t.n)
		t.root.each(*dups, func(x *entry) { t.ents = append(t.ents, x) })
		slices.SortFunc(t.ents, byRank)
		t.keys = make([]matchKey, len(t.ents))
		for i, x := range t.ents {
			t.keys[i] = ruleKey(&x.rule.Match, t.shape)
			delete(*dups, x)
		}
		t.root, t.trie = trieRoot{}, false
	}
	if t.n > 0 {
		t.bound = t.ents[0].rank()
	}
}

// compiledTable is an immutable snapshot of the tuple-space index over a
// table's rules. Once published via the table's atomic pointer it is
// never mutated, so readers share it without synchronization; between
// beginning a draft and publishing it, the writer edits it in place.
type compiledTable struct {
	tuples []*tuple // sorted by bound, best first
}

// draftOf starts the successor of c (nil for an empty table): a private
// copy of the tuple list whose headers are still shared.
func draftOf(c *compiledTable) *compiledTable {
	if c == nil {
		return &compiledTable{}
	}
	return &compiledTable{tuples: slices.Clone(c.tuples)}
}

// indexOf returns the position of the tuple for shape s, or -1.
func (c *compiledTable) indexOf(s shapeKey) int {
	for i := range c.tuples {
		if c.tuples[i].shape == s {
			return i
		}
	}
	return -1
}

// own makes tuple i's header editable by the draft of generation gen,
// copying it unless that draft allocated it, and returns it.
func (c *compiledTable) own(gen uint64, i int) *tuple {
	if t := c.tuples[i]; t.gen != gen {
		cp := *t
		cp.gen = gen
		c.tuples[i] = &cp
	}
	return c.tuples[i]
}

// add indexes e in the draft; dups is the table's duplicate index.
func (c *compiledTable) add(gen uint64, e *entry, dups *dupIndex) {
	s := shapeOf(e.rule.Match)
	i := c.indexOf(s)
	if i < 0 {
		i = len(c.tuples)
		c.tuples = append(c.tuples, newTuple(gen, s))
	}
	c.own(gen, i).add(gen, ruleKey(&e.rule.Match, s), e, dups)
	c.settle(i)
}

// remove drops e, which the draft indexes; dups is the table's duplicate
// index.
func (c *compiledTable) remove(gen uint64, e *entry, dups *dupIndex) {
	s := shapeOf(e.rule.Match)
	i := c.indexOf(s)
	t := c.own(gen, i)
	t.remove(gen, ruleKey(&e.rule.Match, s), e, dups)
	if t.n == 0 {
		c.tuples = slices.Delete(c.tuples, i, i+1)
		return
	}
	c.settle(i)
}

// settle moves tuple i, whose bound just changed, to its sorted place.
func (c *compiledTable) settle(i int) {
	ts := c.tuples
	for ; i > 0 && ts[i].bound.before(ts[i-1].bound); i-- {
		ts[i], ts[i-1] = ts[i-1], ts[i]
	}
	for ; i+1 < len(ts) && ts[i+1].bound.before(ts[i].bound); i++ {
		ts[i], ts[i+1] = ts[i+1], ts[i]
	}
}

// lookup returns the matching rule that comes first in match order, or
// nil — identical to the linear scan's first hit. Probing order is
// ascending bound, so the loop exits as soon as no remaining tuple can
// beat the current winner.
//
//apple:noalloc
func (c *compiledTable) lookup(p *Packet) *entry {
	var best *entry
	for i := range c.tuples {
		t := c.tuples[i]
		if best != nil && !t.bound.before(best.rank()) {
			break
		}
		k := t.packetKey(p)
		var e *entry
		if t.trie {
			e = t.root.find(k.hash(), k, t.shape)
		} else {
			for n := range t.keys {
				if t.keys[n] == k {
					e = t.ents[n]
					break
				}
			}
		}
		if e != nil && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}
