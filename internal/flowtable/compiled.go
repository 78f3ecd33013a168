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
// every installed rule is one immutable entry (order.go) carrying its
// priority and its per-table install sequence number, and a lookup
// returns the matching entry that comes first in (priority descending,
// sequence ascending) order — the same rule the linear scan's first hit
// finds, byte for byte.
//
// A snapshot is a short slice of tuple headers. A mutation clones that
// slice (one header per shape), rewrites only the tuples the batch
// touches, and shares the rest: a small tuple is two short parallel
// slices copied whole, a large one a persistent hash trie (trie.go) of
// which only the path to the touched key is copied.

// Field-presence bits of a match shape, one per Match field.
const (
	cHostTag uint8 = 1 << iota
	cSubTag
	cInPort
	cSrc
	cDst
	cProto
	cSrcPort
	cDstPort
)

// matchKey packs every concrete field value of one shape into three
// comparable machine words. Fields the shape treats as wildcards stay
// zero on both the rule side and the packet side, so equality of keys is
// exactly "the packet satisfies every concrete field". The packing is
// the arena/SoA representation of Match: the eight pointer fields of a
// rule collapse into this flat value plus the tuple's presence mask, and
// a tuple stores its rules' keys in one contiguous slice.
type matchKey struct {
	lo   uint64 // src addr (32, masked) | dst addr (32, masked) << 32
	hi   uint64 // hostTag | subTag<<16 | proto<<24 | srcPort<<32 | dstPort<<48
	port int64  // InPort, full int range
}

// shapeKey identifies a tuple: the concrete-field mask plus the two
// prefix lengths (1..32; a nil or zero-length prefix is a wildcard and
// contributes no bit).
type shapeKey struct {
	mask           uint8
	srcLen, dstLen int8
}

// clampLen normalizes a Prefix.Len to the effective number of compared
// bits: Contains treats Len <= 0 as match-everything and Len >= 32 as
// full-address equality.
func clampLen(l int) int8 {
	if l <= 0 {
		return 0
	}
	if l >= 32 {
		return 32
	}
	return int8(l)
}

// prefixMask returns the 32-bit mask selecting the top l bits, l in 1..32.
func prefixMask(l int8) uint32 {
	return ^uint32(0) << (32 - uint(l))
}

// shapeOf extracts a match's shape.
func shapeOf(m Match) shapeKey {
	var s shapeKey
	if m.HostTag != nil {
		s.mask |= cHostTag
	}
	if m.SubTag != nil {
		s.mask |= cSubTag
	}
	if m.InPort != nil {
		s.mask |= cInPort
	}
	if m.Src != nil {
		if l := clampLen(m.Src.Len); l > 0 {
			s.mask |= cSrc
			s.srcLen = l
		}
	}
	if m.Dst != nil {
		if l := clampLen(m.Dst.Len); l > 0 {
			s.mask |= cDst
			s.dstLen = l
		}
	}
	if m.Proto != nil {
		s.mask |= cProto
	}
	if m.SrcPort != nil {
		s.mask |= cSrcPort
	}
	if m.DstPort != nil {
		s.mask |= cDstPort
	}
	return s
}

// ruleKey packs the concrete field values of a match with the given
// shape. Prefix addresses are masked to the compared bits so rules whose
// spare low bits differ still collide onto one key, mirroring
// Prefix.Contains.
func ruleKey(m Match, s shapeKey) matchKey {
	var k matchKey
	if s.mask&cSrc != 0 {
		k.lo = uint64(m.Src.Addr & prefixMask(s.srcLen))
	}
	if s.mask&cDst != 0 {
		k.lo |= uint64(m.Dst.Addr&prefixMask(s.dstLen)) << 32
	}
	if s.mask&cHostTag != 0 {
		k.hi = uint64(*m.HostTag)
	}
	if s.mask&cSubTag != 0 {
		k.hi |= uint64(*m.SubTag) << 16
	}
	if s.mask&cProto != 0 {
		k.hi |= uint64(*m.Proto) << 24
	}
	if s.mask&cSrcPort != 0 {
		k.hi |= uint64(*m.SrcPort) << 32
	}
	if s.mask&cDstPort != 0 {
		k.hi |= uint64(*m.DstPort) << 48
	}
	if s.mask&cInPort != 0 {
		k.port = int64(*m.InPort)
	}
	return k
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
// the shape and bound every probe needs, then the root's bitmaps and
// child array (a large trie's root holds only children), then the
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
	root  trieNode   // trie tuples
	keys  []matchKey // slice tuples: packed rule keys, match order
	ents  []*entry   // the rule under each key
	n     int        // rules in the tuple
}

func newTuple(s shapeKey) tuple {
	t := tuple{shape: s}
	if s.mask&cSrc != 0 {
		t.srcMask = prefixMask(s.srcLen)
	}
	if s.mask&cDst != 0 {
		t.dstMask = prefixMask(s.dstLen)
	}
	return t
}

// packetKey packs the packet fields this tuple's shape compares. It is
// the hot-path twin of ruleKey: pure arithmetic, no branches on rule
// data, no allocation.
//
//apple:noalloc
func (t *tuple) packetKey(p *Packet) matchKey {
	var k matchKey
	m := t.shape.mask
	if m&cSrc != 0 {
		k.lo = uint64(p.Hdr.SrcIP & t.srcMask)
	}
	if m&cDst != 0 {
		k.lo |= uint64(p.Hdr.DstIP&t.dstMask) << 32
	}
	if m&cHostTag != 0 {
		k.hi = uint64(p.HostTag)
	}
	if m&cSubTag != 0 {
		k.hi |= uint64(p.SubTag) << 16
	}
	if m&cProto != 0 {
		k.hi |= uint64(p.Hdr.Proto) << 24
	}
	if m&cSrcPort != 0 {
		k.hi |= uint64(p.Hdr.SrcPort) << 32
	}
	if m&cDstPort != 0 {
		k.hi |= uint64(p.Hdr.DstPort) << 48
	}
	if m&cInPort != 0 {
		k.port = int64(p.InPort)
	}
	return k
}

// add indexes e under key k.
func (t *tuple) add(gen uint64, k matchKey, e *entry) {
	if r := e.rank(); t.n == 0 || r.before(t.bound) {
		t.bound = r
	}
	t.n++
	if t.trie {
		t.root.insert(gen, k.hash(), 0, k, e)
		return
	}
	// A slice tuple's slices are shared with published snapshots and at
	// most tupleHashCutoff long: every change builds new ones.
	i := sort.Search(len(t.ents), func(i int) bool { return e.before(t.ents[i]) })
	t.keys = slices.Concat(t.keys[:i], []matchKey{k}, t.keys[i:])
	t.ents = slices.Concat(t.ents[:i], []*entry{e}, t.ents[i:])
	if len(t.ents) > tupleHashCutoff {
		for j, x := range t.ents {
			t.root.insert(gen, t.keys[j].hash(), 0, t.keys[j], x)
		}
		t.keys, t.ents, t.trie = nil, nil, true
	}
}

// remove drops e (by identity), which the tuple holds under key k.
func (t *tuple) remove(gen uint64, k matchKey, e *entry) {
	t.n--
	switch {
	case !t.trie:
		i := slices.Index(t.ents, e)
		t.keys = slices.Concat(t.keys[:i], t.keys[i+1:])
		t.ents = slices.Concat(t.ents[:i], t.ents[i+1:])
	case t.n > tupleHashCutoff/2:
		t.root.remove(gen, k.hash(), 0, k, e)
		return // bound stays, possibly optimistic
	default:
		// Back to slices: collect what is left, in match order.
		t.root.remove(gen, k.hash(), 0, k, e)
		t.ents = make([]*entry, 0, t.n)
		t.root.each(func(x *entry) { t.ents = append(t.ents, x) })
		slices.SortFunc(t.ents, byRank)
		t.keys = make([]matchKey, len(t.ents))
		for i, x := range t.ents {
			t.keys[i] = ruleKey(x.rule.Match, t.shape)
		}
		t.root, t.trie = trieNode{}, false
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
	tuples []tuple // sorted by bound, best first
}

// draftOf starts the successor of c (nil for an empty table): a private
// copy of the tuple headers whose contents are still shared.
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

// add indexes e in the draft.
func (c *compiledTable) add(gen uint64, e *entry) {
	s := shapeOf(e.rule.Match)
	i := c.indexOf(s)
	if i < 0 {
		i = len(c.tuples)
		c.tuples = append(c.tuples, newTuple(s))
	}
	c.tuples[i].add(gen, ruleKey(e.rule.Match, s), e)
	c.settle(i)
}

// remove drops e, which the draft indexes.
func (c *compiledTable) remove(gen uint64, e *entry) {
	s := shapeOf(e.rule.Match)
	i := c.indexOf(s)
	c.tuples[i].remove(gen, ruleKey(e.rule.Match, s), e)
	if c.tuples[i].n == 0 {
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
		t := &c.tuples[i]
		if best != nil && !t.bound.before(best.rank()) {
			break
		}
		k := t.packetKey(p)
		var e *entry
		if t.trie {
			e = t.root.find(k.hash(), k)
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
