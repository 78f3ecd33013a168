package flowtable

import (
	"math/bits"
	"slices"
)

// A hashed tuple keeps its rules in a persistent hash trie: a 64-way
// hash-array-mapped trie in the compact two-bitmap layout (one bitmap for
// slots that hold a key, one for slots that hold a child), so a node
// stores only its occupied positions. Arrays reachable from a published
// snapshot are never written. A mutation copies an array only if it
// writes it: a key added to or dropped from a node copies that node's
// data, and a walk down to a child copies the kids array the child's
// header lives in, while the node's data stays shared. Along the path
// from the root to the touched slot — O(log₆₄ n) nodes — that is one
// array per level, and everything else is shared with the predecessor
// snapshot, which is what makes one rule's install cost independent of
// how many rules the tuple already holds.
//
// The root is the one node laid out differently (trieRoot): a tuple of a
// thousand rules has all 64 root children, so the root's child array is
// the largest thing on every path, and it is split into sixteen fixed
// pages of four children. A mutation copies the one page it passes
// through, and the root's data only if it writes there.
//
// Within one unpublished draft the copies are not repeated: every node
// records the generation that last copied one of its arrays and which of
// the two that draft allocated, and the draft edits those in place (no
// reader can have seen them yet); the root remembers the same for its
// data and for each of its pages. A thousand-rule batch therefore copies
// each touched array and page once, not once per rule.
//
// A slot holds one rule, the best-ranked of its key, which is all a
// lookup can return. The key's other rules are the writer's alone: they
// wait in the table's dupIndex, under mu, for the rule ahead of them to
// leave, and no snapshot holds them. Adding or removing such a rule
// writes nothing in the trie, so it copies no array; only a change of a
// key's best rule does.

const (
	trieBits = 6
	trieMask = 1<<trieBits - 1
	// hashBits is the width of matchKey.hash. Levels consume it six bits
	// at a time (shifts 0, 6, …, 60); a node below the last level holds
	// keys whose hashes are equal in all 64 bits and is a flat list.
	hashBits = 64

	// The root's 64 children live in rootPages pages of pageSize, child i
	// at pages[i>>pageBits][i&pageMask].
	pageBits  = 2
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	rootPages = 1 << (trieBits - pageBits)

	// A trieNode's stamp is a draft generation shifted left by stampBits,
	// with ownsData and ownsKids set for the arrays that draft allocated.
	// owns compares generations unshifted, so a draft too late for a
	// stamp to hold (generation 2⁶² on) matches no stamp, even where its
	// shifted generation equals an earlier draft's, and copies every
	// array it writes.
	ownsData  = 1
	ownsKids  = 2
	stampBits = 2

	// rootOwnsData is the bit of trieRoot.owned above the page bits that
	// says the draft allocated the root's data. It must not share a bit
	// with a page: a draft that copied that page would then edit a
	// published data array in place.
	rootOwnsData = 1 << rootPages
)

// trieSlot is one distinct match key and the best-ranked rule installed
// under it. Almost always that is the key's only rule; when several rules
// share a key (same match at different priorities, or installed twice
// under different names) the rest wait in the table's dupIndex.
//
// The slot does not store its key: every rule of the key packs to the
// same one, so the key is ruleKey(e.rule.Match, shape) for the tuple's
// shape. A probe that reaches a slot loads e anyway, for its rank, and
// without the 24-byte key and the duplicate list a slot is one pointer,
// 8 bytes, which every data array a write copies is made of.
type trieSlot struct {
	e *entry
}

// dupIndex holds, for the best-ranked rule of every trie slot whose key
// has more than one rule, the key's other rules in match order. It is
// the table's, guarded by its mu: only writers read it, so its lists are
// edited in place, and it reflects the newest draft, never an older
// snapshot. A nil index is empty; add and displace make it.
type dupIndex map[*entry]*trieDup

// trieDup is a list cell of a key's lower-ranked rules.
type trieDup struct {
	e    *entry
	next *trieDup
}

// trieNode is one trie node below the root. data[i] is the slot at the
// i-th set bit of dataMap and kids[j] the child at the j-th set bit of
// kidMap; a flat node uses neither bitmap.
//
// A node is a value, stored in its parent's kids array (or in a root
// page), not a separately allocated object: the bitmaps a lookup needs to
// index a child's arrays arrive with the parent's array, so a lookup
// takes one dependent load per level instead of two. A pointer per child
// makes path copies smaller but adds that load back: with it a cache-cold
// probe measured about a fifth slower (DESIGN.md §8).
type trieNode struct {
	dataMap, kidMap uint64
	kids            []trieNode
	data            []trieSlot
	// stamp is the draft generation that last copied one of the arrays and
	// which of them it allocated (ownsData, ownsKids); that draft edits
	// those in place. Packing both into one word keeps the node, which
	// every kids array and root page is made of, at 72 bytes.
	stamp uint64
}

// trieRoot is a trie's root, held by value in the tuple header. Its keys
// sit in data at the dataMap bits exactly as in a trieNode, but its
// children are indexed densely by hash bits: child i is
// pages[i>>pageBits][i&pageMask], a value as everywhere else, and a page
// none of whose children is present is nil. The page pointers are in the
// header every probe already reads, so reaching a root child is still one
// dependent load, and copying the path through a full root costs one
// page of four child headers instead of all 64.
type trieRoot struct {
	dataMap, kidMap uint64
	pages           [rootPages]*[pageSize]trieNode
	data            []trieSlot
	// gen is the draft generation owned is about: bit p is set when that
	// draft allocated pages[p], and rootOwnsData when it allocated data.
	// The draft edits those in place.
	gen   uint64
	owned uint32
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

// key returns the match key the slot's rules share in a trie of the given
// shape.
//
//apple:noalloc
func (s *trieSlot) key(shape shapeKey) matchKey {
	return ruleKey(&s.e.rule.Match, shape)
}

// find returns the best-ranked rule stored under key k (whose hash is h)
// in a trie of the given shape, or nil. The root is the walk's first
// step, not a call of its own, so a probe is one call.
//
//apple:noalloc
func (r *trieRoot) find(h uint64, k matchKey, shape shapeKey) *entry {
	i := h & trieMask
	bit := uint64(1) << i
	if r.dataMap&bit != 0 {
		s := &r.data[bits.OnesCount64(r.dataMap&(bit-1))]
		if s.key(shape) == k {
			return s.e
		}
		return nil
	}
	if r.kidMap&bit == 0 {
		return nil
	}
	n := &r.pages[i>>pageBits][i&pageMask]
	for shift := uint(trieBits); shift < hashBits; shift += trieBits {
		bit = uint64(1) << (h >> shift & trieMask)
		if n.dataMap&bit != 0 {
			s := &n.data[bits.OnesCount64(n.dataMap&(bit-1))]
			if s.key(shape) == k {
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
		if n.data[i].key(shape) == k {
			return n.data[i].e
		}
	}
	return nil
}

// claim starts the draft of generation gen on the root with nothing of
// its own, unless it already has.
func (r *trieRoot) claim(gen uint64) {
	if r.gen != gen {
		r.gen, r.owned = gen, 0
	}
}

// ownData makes the root's data editable by the draft of generation gen,
// copying it unless that draft allocated it. A copy has room for grow
// more slots, the number the caller is about to add.
func (r *trieRoot) ownData(gen uint64, grow int) {
	r.claim(gen)
	if r.owned&rootOwnsData == 0 {
		r.data = append(make([]trieSlot, 0, len(r.data)+grow), r.data...)
		r.owned |= rootOwnsData
	}
}

// page makes the page holding child i editable by the draft of generation
// gen, copying it (or allocating it, if it is empty) unless that draft
// already did, and returns it. Copying a page copies its children's
// headers; their arrays stay shared until they are written in turn.
func (r *trieRoot) page(gen, i uint64) *[pageSize]trieNode {
	r.claim(gen)
	p := i >> pageBits
	if r.owned&(1<<p) == 0 {
		pg := new([pageSize]trieNode)
		if r.pages[p] != nil {
			*pg = *r.pages[p]
		}
		r.pages[p] = pg
		r.owned |= 1 << p
	}
	return r.pages[p]
}

// insert adds e under key k (hash h) to a trie of the given shape. If
// the key's best rule comes before e, e joins that rule's duplicates and
// the trie is not touched; otherwise e takes the key's slot and the rule
// it displaces heads e's duplicates.
func (r *trieRoot) insert(gen, h uint64, k matchKey, shape shapeKey, e *entry, dups *dupIndex) {
	best := r.find(h, k, shape)
	if best != nil && best.before(e) {
		dups.add(best, e)
		return
	}
	if best != nil {
		dups.displace(best, e)
	}
	r.put(gen, h, k, shape, e)
}

// remove deletes e (by identity), which the trie of the given shape holds
// under key k. If e is one of the key's duplicates it leaves dups and the
// trie is not touched; otherwise the next duplicate takes its slot, or
// the slot goes.
func (r *trieRoot) remove(gen, h uint64, k matchKey, shape shapeKey, e *entry, dups *dupIndex) {
	if best := r.find(h, k, shape); best != e {
		dups.drop(best, e)
		return
	}
	r.replace(gen, h, k, shape, dups.promote(e))
}

// put stores e in key k's slot, adding the slot if the key has none.
func (r *trieRoot) put(gen, h uint64, k matchKey, shape shapeKey, e *entry) {
	i := h & trieMask
	bit := uint64(1) << i
	di := bits.OnesCount64(r.dataMap & (bit - 1))
	switch {
	case r.dataMap&bit != 0:
		r.ownData(gen, 0)
		s := &r.data[di]
		if s.key(shape) == k {
			s.e = e
			return
		}
		kid := &r.page(gen, i)[i&pageMask]
		*kid = splitSlot(gen, *s, 0, shape)
		kid.put(gen, h, trieBits, k, shape, e)
		r.data = slices.Delete(r.data, di, di+1)
		r.dataMap &^= bit
		r.kidMap |= bit
	case r.kidMap&bit != 0:
		r.page(gen, i)[i&pageMask].put(gen, h, trieBits, k, shape, e)
	default:
		r.ownData(gen, 1)
		r.data = slices.Insert(r.data, di, trieSlot{e: e})
		r.dataMap |= bit
	}
}

// replace stores next in key k's slot, which the trie holds, or deletes
// the slot if next is nil. A child left with at most one slot is folded
// back into the root's data, and a page left with no child is released.
func (r *trieRoot) replace(gen, h uint64, k matchKey, shape shapeKey, next *entry) {
	i := h & trieMask
	bit := uint64(1) << i
	di := bits.OnesCount64(r.dataMap & (bit - 1))
	if r.dataMap&bit != 0 {
		r.ownData(gen, 0)
		if next != nil {
			r.data[di].e = next
		} else {
			r.data = slices.Delete(r.data, di, di+1)
			r.dataMap &^= bit
		}
		return
	}
	kid := &r.page(gen, i)[i&pageMask]
	kid.replace(gen, h, trieBits, k, shape, next)
	if !kid.lone() {
		return
	}
	if len(kid.data) == 1 {
		r.ownData(gen, 1)
		r.data = slices.Insert(r.data, di, kid.data[0])
		r.dataMap |= bit
	}
	*kid = trieNode{}
	r.kidMap &^= bit
	if p := i >> pageBits; r.kidMap>>(p*pageSize)&(1<<pageSize-1) == 0 {
		r.pages[p] = nil
		r.owned &^= 1 << p
	}
}

// each calls visit for every rule in the trie, the duplicates dups holds
// for its slots included, in no particular order. dups describes the
// newest draft only, so only that draft's trie yields every rule.
func (r *trieRoot) each(dups dupIndex, visit func(*entry)) {
	eachSlot(r.data, dups, visit)
	for _, pg := range r.pages {
		if pg != nil {
			for i := range pg {
				pg[i].each(dups, visit)
			}
		}
	}
}

// owns reports whether the draft of generation gen allocated the node's
// array that bit (ownsData or ownsKids) names, and so may edit it in
// place.
func (n *trieNode) owns(gen, bit uint64) bool {
	return n.stamp>>stampBits == gen && n.stamp&bit != 0
}

// mark records that the draft of generation gen allocated the array bit
// names, forgetting what an earlier draft allocated.
func (n *trieNode) mark(gen, bit uint64) {
	if n.stamp>>stampBits != gen {
		n.stamp = gen << stampBits
	}
	n.stamp |= bit
}

// ownData makes the node's data editable by the draft of generation gen,
// copying it unless that draft allocated it. A copy has room for grow
// more slots, the number the caller is about to add.
func (n *trieNode) ownData(gen uint64, grow int) {
	if !n.owns(gen, ownsData) {
		n.data = append(make([]trieSlot, 0, len(n.data)+grow), n.data...)
		n.mark(gen, ownsData)
	}
}

// ownKids is ownData for the node's kids. Copying kids copies the
// children's headers; their arrays stay shared until they are written in
// turn.
func (n *trieNode) ownKids(gen uint64, grow int) {
	if !n.owns(gen, ownsKids) {
		n.kids = append(make([]trieNode, 0, len(n.kids)+grow), n.kids...)
		n.mark(gen, ownsKids)
	}
}

// splitSlot returns the node that takes the place of slot s, of a node
// at the level of the given shift in a trie of the given shape, when a
// second key meets s there: a child one level down that holds s alone.
func splitSlot(gen uint64, s trieSlot, shift uint, shape shapeKey) trieNode {
	kid := trieNode{data: []trieSlot{s}}
	kid.mark(gen, ownsData)
	if shift+trieBits < hashBits {
		kid.dataMap = 1 << (s.key(shape).hash() >> (shift + trieBits) & trieMask)
	}
	return kid
}

// lone reports whether a child that just lost a rule must leave its
// parent: it has no children and at most one slot, which moves up.
func (n *trieNode) lone() bool {
	return len(n.kids) == 0 && len(n.data) <= 1
}

// put stores e in key k's slot (hash h) in the subtree rooted at n,
// which sits at the level of the given shift, adding the slot if the key
// has none. The caller owns the array n lives in.
func (n *trieNode) put(gen, h uint64, shift uint, k matchKey, shape shapeKey, e *entry) {
	if shift >= hashBits {
		for i := range n.data {
			if n.data[i].key(shape) == k {
				n.ownData(gen, 0)
				n.data[i].e = e
				return
			}
		}
		n.ownData(gen, 1)
		n.data = append(n.data, trieSlot{e: e})
		return
	}
	bit := uint64(1) << (h >> shift & trieMask)
	di := bits.OnesCount64(n.dataMap & (bit - 1))
	ki := bits.OnesCount64(n.kidMap & (bit - 1))
	switch {
	case n.dataMap&bit != 0:
		n.ownData(gen, 0)
		s := &n.data[di]
		if s.key(shape) == k {
			s.e = e
			return
		}
		// Two keys meet in this slot: both move one level down.
		kid := splitSlot(gen, *s, shift, shape)
		kid.put(gen, h, shift+trieBits, k, shape, e)
		n.data = slices.Delete(n.data, di, di+1)
		n.dataMap &^= bit
		n.ownKids(gen, 1)
		n.kids = slices.Insert(n.kids, ki, kid)
		n.kidMap |= bit
	case n.kidMap&bit != 0:
		n.ownKids(gen, 0)
		n.kids[ki].put(gen, h, shift+trieBits, k, shape, e)
	default:
		n.ownData(gen, 1)
		n.data = slices.Insert(n.data, di, trieSlot{e: e})
		n.dataMap |= bit
	}
}

// replace stores next in key k's slot, which the subtree holds, or
// deletes the slot if next is nil. A child left with a single slot is
// folded back into its parent, so the trie never keeps chains of one-slot
// nodes behind.
func (n *trieNode) replace(gen, h uint64, shift uint, k matchKey, shape shapeKey, next *entry) {
	if shift >= hashBits {
		i := slices.IndexFunc(n.data, func(s trieSlot) bool { return s.key(shape) == k })
		n.ownData(gen, 0)
		if next != nil {
			n.data[i].e = next
		} else {
			n.data = slices.Delete(n.data, i, i+1)
		}
		return
	}
	bit := uint64(1) << (h >> shift & trieMask)
	di := bits.OnesCount64(n.dataMap & (bit - 1))
	if n.dataMap&bit != 0 {
		n.ownData(gen, 0)
		if next != nil {
			n.data[di].e = next
		} else {
			n.data = slices.Delete(n.data, di, di+1)
			n.dataMap &^= bit
		}
		return
	}
	ki := bits.OnesCount64(n.kidMap & (bit - 1))
	n.ownKids(gen, 0)
	kid := &n.kids[ki]
	kid.replace(gen, h, shift+trieBits, k, shape, next)
	if !kid.lone() {
		return
	}
	if len(kid.data) == 1 {
		n.ownData(gen, 1)
		n.data = slices.Insert(n.data, di, kid.data[0])
		n.dataMap |= bit
	}
	n.kids = slices.Delete(n.kids, ki, ki+1)
	n.kidMap &^= bit
}

// each calls visit for every rule in the subtree, the duplicates dups
// holds for its slots included, in no particular order.
func (n *trieNode) each(dups dupIndex, visit func(*entry)) {
	eachSlot(n.data, dups, visit)
	for i := range n.kids {
		n.kids[i].each(dups, visit)
	}
}

// eachSlot calls visit for the rule of every slot and for the duplicates
// dups holds behind it.
func eachSlot(data []trieSlot, dups dupIndex, visit func(*entry)) {
	for i := range data {
		visit(data[i].e)
		for d := dups[data[i].e]; d != nil; d = d.next {
			visit(d.e)
		}
	}
}

// add files e, which best precedes, among best's duplicates in match
// order.
func (d *dupIndex) add(best, e *entry) {
	if *d == nil {
		*d = make(dupIndex)
	}
	l := (*d)[best]
	if l == nil || e.before(l.e) {
		(*d)[best] = &trieDup{e: e, next: l}
		return
	}
	for l.next != nil && !e.before(l.next.e) {
		l = l.next
	}
	l.next = &trieDup{e: e, next: l.next}
}

// displace makes e, which precedes best, the key's best rule: best and
// its duplicates become e's.
func (d *dupIndex) displace(best, e *entry) {
	if *d == nil {
		*d = make(dupIndex)
	}
	(*d)[e] = &trieDup{e: best, next: (*d)[best]}
	delete(*d, best)
}

// drop removes e from best's duplicates, which hold it.
func (d dupIndex) drop(best, e *entry) {
	l := d[best]
	if l.e == e {
		if l.next == nil {
			delete(d, best)
		} else {
			d[best] = l.next
		}
		return
	}
	for l.next.e != e {
		l = l.next
	}
	l.next = l.next.next
}

// promote removes best, a key's best rule, and returns the duplicate that
// takes its place with the rest behind it, or nil if it had none.
func (d dupIndex) promote(best *entry) *entry {
	l := d[best]
	if l == nil {
		return nil
	}
	delete(d, best)
	if l.next != nil {
		d[l.e] = l.next
	}
	return l.e
}
