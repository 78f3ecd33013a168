package flowtable

// entry is one installed rule. It is allocated once at install time,
// never modified afterwards, and shared by the writer-side match-order
// tree, the name index, every published snapshot that contains the rule,
// and any undo token that mentions it.
type entry struct {
	rule Rule
	// seq is the table's install sequence number at the time the rule was
	// first installed. Match order is (priority descending, seq
	// ascending), so "ties resolve to the earlier-installed rule" is a
	// comparison of two entries and needs no global slice index. A rule
	// restored by Revert keeps its original seq and therefore its place.
	seq uint64
}

// rank is a position in match order: priority descending, install
// sequence ascending.
type rank struct {
	prio int
	seq  uint64
}

//apple:noalloc
func (r rank) before(o rank) bool {
	if r.prio != o.prio {
		return r.prio > o.prio
	}
	return r.seq < o.seq
}

//apple:noalloc
func (e *entry) rank() rank { return rank{e.rule.Priority, e.seq} }

// before reports whether e precedes o in match order.
//
//apple:noalloc
func (e *entry) before(o *entry) bool { return e.rank().before(o.rank()) }

// byRank orders distinct entries by match order, for slices.SortFunc.
func byRank(a, b *entry) int {
	if a.before(b) {
		return -1
	}
	return 1
}

// orderNode is a node of the writer-side match-order tree: a treap over
// the installed entries, keyed by match order and heap-ordered by a hash
// of the entry's seq (deterministic, so a table's shape depends only on
// its history). It gives O(log n) insert and delete at any position —
// including the middle of an equal-priority run, where Revert puts rules
// back — and the in-order walk Rules, Names, Shadowed and LookupLinear
// need. Only mutators and read-locked walkers touch it; the forwarding
// path never does.
type orderNode struct {
	e           *entry
	left, right *orderNode
}

// heapKey spreads seq over 64 bits (the splitmix64 finalizer); the node
// with the largest key of a subtree is its root.
func heapKey(e *entry) uint64 {
	x := e.seq + 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// orderInsert adds e to the tree rooted at n and returns the new root.
func orderInsert(n *orderNode, e *entry) *orderNode {
	if n == nil {
		return &orderNode{e: e}
	}
	if heapKey(e) > heapKey(n.e) {
		l, r := orderSplit(n, e)
		return &orderNode{e: e, left: l, right: r}
	}
	if e.before(n.e) {
		n.left = orderInsert(n.left, e)
	} else {
		n.right = orderInsert(n.right, e)
	}
	return n
}

// orderSplit partitions the tree into the entries before e and the
// entries after it.
func orderSplit(n *orderNode, e *entry) (l, r *orderNode) {
	if n == nil {
		return nil, nil
	}
	if n.e.before(e) {
		n.right, r = orderSplit(n.right, e)
		return n, r
	}
	l, n.left = orderSplit(n.left, e)
	return l, n
}

// orderRemove deletes e (by identity), which the tree rooted at n holds,
// and returns the new root.
func orderRemove(n *orderNode, e *entry) *orderNode {
	if n.e == e {
		return orderMerge(n.left, n.right)
	}
	if e.before(n.e) {
		n.left = orderRemove(n.left, e)
	} else {
		n.right = orderRemove(n.right, e)
	}
	return n
}

// orderMerge joins two trees where every entry of a precedes every entry
// of b.
func orderMerge(a, b *orderNode) *orderNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if heapKey(a.e) > heapKey(b.e) {
		a.right = orderMerge(a.right, b)
		return a
	}
	b.left = orderMerge(a, b.left)
	return b
}

// walk visits the entries in match order until visit returns false, and
// reports whether the walk ran to completion.
func (n *orderNode) walk(visit func(*entry) bool) bool {
	if n == nil {
		return true
	}
	return n.left.walk(visit) && visit(n.e) && n.right.walk(visit)
}
