package flowtable

// entry is one installed rule. It is allocated once at install time and
// shared by the name index, every published snapshot that contains the
// rule, and any undo token that mentions it. Its rule and seq never
// change, so the lock-free lookup path reads them freely; nextSameName is
// the name index's link, which only the writer reads or writes, under the
// table's mu.
type entry struct {
	rule Rule
	// seq is the table's install sequence number at the time the rule was
	// first installed. Match order is (priority descending, seq
	// ascending), so "ties resolve to the earlier-installed rule" is a
	// comparison of two entries and needs no global slice index. A rule
	// restored by Revert keeps its original seq and therefore its place.
	seq uint64
	// nextSameName is the next entry carrying the same name, in install
	// order; see Table.byName. Only writers touch it, holding the owning
	// table's mu (which the guardedfield annotation cannot name from
	// here); the lookup path never reads it.
	nextSameName *entry
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
