package flowtable

import (
	"math/bits"
	"slices"
)

// A hashed tuple keeps its rules in a persistent hash trie: a 64-way
// hash-array-mapped trie in the compact two-bitmap layout (one bitmap for
// slots that hold a key, one for slots that hold a child), so a node
// stores only its occupied positions. Arrays reachable from a published
// snapshot are never written. A mutation copies the arrays on the path
// from the root to the touched slot — O(log₆₄ n) of them — and shares
// everything else with the predecessor snapshot, which is what makes one
// rule's install cost independent of how many rules the tuple already
// holds.
//
// Within one unpublished draft the copies are not repeated: every node
// carries the generation that allocated its arrays, and a draft of that
// generation edits them in place (no reader can have seen them yet). A
// thousand-rule batch therefore copies each touched array once, not once
// per rule.

const (
	trieBits = 6
	trieMask = 1<<trieBits - 1
	// hashBits is the width of matchKey.hash. Levels consume it six bits
	// at a time (shifts 0, 6, …, 60); a node below the last level holds
	// keys whose hashes are equal in all 64 bits and is a flat list.
	hashBits = 64
)

// trieSlot is one distinct match key and the rules installed under it.
// Almost always that is a single rule; when several rules share a key
// (same match at different priorities, or installed twice under different
// names) the best-ranked one sits in e, where a lookup finds it without
// another load, and the rest follow in match order.
type trieSlot struct {
	key  matchKey
	e    *entry
	more *trieDup
}

// trieDup is an immutable list cell of a slot's lower-ranked rules.
type trieDup struct {
	e    *entry
	next *trieDup
}

// trieNode is one trie node. For a node above the flat level, data[i] is
// the slot at the i-th set bit of dataMap and kids[j] the child at the
// j-th set bit of kidMap; a flat node uses neither bitmap.
//
// A node is a value, stored in its parent's kids array (the root in the
// tuple header), not a separately allocated object: the bitmaps a lookup
// needs to index a child's arrays arrive with the parent's array, so a
// lookup takes one dependent load per level instead of two. A pointer
// per child makes path copies three times smaller (a full root is 64
// pointers instead of 64 headers) and probes a cache-hot table just as
// fast, but a six-hop walk over 41 k cold classes measured 5 % slower
// with it than with the hash map this structure replaced; by value it
// is level with the map.
type trieNode struct {
	dataMap, kidMap uint64
	kids            []trieNode
	data            []trieSlot
	// gen is the draft generation that allocated data and kids; a draft
	// of that generation edits them in place.
	gen uint64
}

// spread scatters one key word over 64 bits before the words are folded
// together; see matchKey.hash.
//
//apple:noalloc
func spread(v, mul uint64) uint64 {
	return bits.RotateLeft64(v*mul, 31)
}

// hash folds the three key words and runs the murmur3 finalizer over the
// result. The finalizer is a bijection, so two keys collide in all 64
// bits exactly when their folds are equal — which the tests use to build
// colliding keys on purpose and drive the flat-node path.
//
//apple:noalloc
func (k matchKey) hash() uint64 {
	x := k.lo ^ spread(k.hi, 0x9E3779B97F4A7C15) ^ spread(uint64(k.port), 0xC2B2AE3D27D4EB4F)
	x = (x ^ x>>33) * 0xFF51AFD7ED558CCD
	x = (x ^ x>>33) * 0xC4CEB9FE1A85EC53
	return x ^ x>>33
}

// find returns the best-ranked rule stored under key k (whose hash is h),
// or nil.
//
//apple:noalloc
func (n *trieNode) find(h uint64, k matchKey) *entry {
	for shift := uint(0); shift < hashBits; shift += trieBits {
		bit := uint64(1) << (h >> shift & trieMask)
		if n.dataMap&bit != 0 {
			s := &n.data[bits.OnesCount64(n.dataMap&(bit-1))]
			if s.key == k {
				return s.e
			}
			return nil
		}
		if n.kidMap&bit == 0 {
			return nil
		}
		n = &n.kids[bits.OnesCount64(n.kidMap&(bit-1))]
	}
	for i := range n.data {
		if n.data[i].key == k {
			return n.data[i].e
		}
	}
	return nil
}

// own makes the node's arrays editable by the draft of generation gen,
// copying them unless that draft allocated them. The copies have room
// for one more element, so the insert that usually follows does not
// reallocate what was just copied. Copying kids copies the children's
// headers; their arrays stay shared until they are touched in turn.
func (n *trieNode) own(gen uint64) {
	if n.gen == gen {
		return
	}
	n.data = append(make([]trieSlot, 0, len(n.data)+1), n.data...)
	n.kids = append(make([]trieNode, 0, len(n.kids)+1), n.kids...)
	n.gen = gen
}

// insert adds e under key k (hash h) to the subtree rooted at n, which
// sits at the level of the given shift. The caller owns the array n
// lives in.
func (n *trieNode) insert(gen, h uint64, shift uint, k matchKey, e *entry) {
	n.own(gen)
	if shift >= hashBits {
		for i := range n.data {
			if n.data[i].key == k {
				n.data[i].push(e)
				return
			}
		}
		n.data = append(n.data, trieSlot{key: k, e: e})
		return
	}
	bit := uint64(1) << (h >> shift & trieMask)
	di := bits.OnesCount64(n.dataMap & (bit - 1))
	ki := bits.OnesCount64(n.kidMap & (bit - 1))
	switch {
	case n.dataMap&bit != 0:
		s := &n.data[di]
		if s.key == k {
			s.push(e)
			return
		}
		// Two keys meet in this slot: both move one level down.
		kid := trieNode{gen: gen, data: []trieSlot{*s}}
		if shift+trieBits < hashBits {
			kid.dataMap = 1 << (s.key.hash() >> (shift + trieBits) & trieMask)
		}
		kid.insert(gen, h, shift+trieBits, k, e)
		n.data = slices.Delete(n.data, di, di+1)
		n.dataMap &^= bit
		n.kids = slices.Insert(n.kids, ki, kid)
		n.kidMap |= bit
	case n.kidMap&bit != 0:
		n.kids[ki].insert(gen, h, shift+trieBits, k, e)
	default:
		n.data = slices.Insert(n.data, di, trieSlot{key: k, e: e})
		n.dataMap |= bit
	}
}

// remove deletes e (by identity), which the subtree holds under key k. A
// child left with a single slot is folded back into its parent, so the
// trie never keeps chains of one-slot nodes behind.
func (n *trieNode) remove(gen, h uint64, shift uint, k matchKey, e *entry) {
	n.own(gen)
	if shift >= hashBits {
		i := slices.IndexFunc(n.data, func(s trieSlot) bool { return s.key == k })
		if n.data[i].drop(e) {
			n.data = slices.Delete(n.data, i, i+1)
		}
		return
	}
	bit := uint64(1) << (h >> shift & trieMask)
	di := bits.OnesCount64(n.dataMap & (bit - 1))
	if n.dataMap&bit != 0 {
		if n.data[di].drop(e) {
			n.data = slices.Delete(n.data, di, di+1)
			n.dataMap &^= bit
		}
		return
	}
	ki := bits.OnesCount64(n.kidMap & (bit - 1))
	kid := &n.kids[ki]
	kid.remove(gen, h, shift+trieBits, k, e)
	if len(kid.kids) > 0 || len(kid.data) > 1 {
		return
	}
	if len(kid.data) == 1 {
		n.data = slices.Insert(n.data, di, kid.data[0])
		n.dataMap |= bit
	}
	n.kids = slices.Delete(n.kids, ki, ki+1)
	n.kidMap &^= bit
}

// each calls visit for every rule in the subtree, in no particular order.
func (n *trieNode) each(visit func(*entry)) {
	for i := range n.data {
		visit(n.data[i].e)
		for d := n.data[i].more; d != nil; d = d.next {
			visit(d.e)
		}
	}
	for i := range n.kids {
		n.kids[i].each(visit)
	}
}

// push adds e to the slot, keeping its rules in match order. The list
// cells are shared with published snapshots, so the prefix up to the
// insertion point is copied, never relinked.
func (s *trieSlot) push(e *entry) {
	if e.before(s.e) {
		s.e, s.more = e, &trieDup{e: s.e, next: s.more}
		return
	}
	s.more = s.more.insert(e)
}

func (d *trieDup) insert(e *entry) *trieDup {
	if d == nil || e.before(d.e) {
		return &trieDup{e: e, next: d}
	}
	return &trieDup{e: d.e, next: d.next.insert(e)}
}

// drop removes e, which the slot holds, and reports whether the slot is
// now empty.
func (s *trieSlot) drop(e *entry) (empty bool) {
	if s.e != e {
		s.more = s.more.without(e)
		return false
	}
	if s.more == nil {
		return true
	}
	s.e, s.more = s.more.e, s.more.next
	return false
}

func (d *trieDup) without(e *entry) *trieDup {
	if d.e == e {
		return d.next
	}
	return &trieDup{e: d.e, next: d.next.without(e)}
}
