// Package flowtable models SDN switch flow tables: ternary (TCAM-style)
// rules with priorities, multi-table pipelines with goto-table semantics
// (the layout of Table III in the paper), the cross-product fallback for
// switches without pipelining (§V-B), and the prefix-splitting machinery
// that realizes fractional sub-class portions as wildcard rules (§V-A,
// second method).
package flowtable

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/metrics"
)

// Tag field conventions. The paper uses unused header bits — the 12-bit
// VLAN ID for the host tag and the 6-bit DS field for the sub-class tag.
const (
	// HostTagEmpty means the packet has not been classified yet.
	HostTagEmpty uint16 = 0
	// HostTagFin means every required VNF instance has processed the
	// packet.
	HostTagFin uint16 = 0xFFF
	// MaxHostTag is the largest assignable host ID (12-bit VLAN field,
	// minus the Empty and Fin sentinels).
	MaxHostTag uint16 = 0xFFE
	// MaxSubTag is the largest sub-class tag (6-bit DS field).
	MaxSubTag uint8 = 63
)

// Packet is the mutable per-packet context a pipeline operates on: the
// immutable header plus the two APPLE tag fields and switch-local
// metadata.
type Packet struct {
	Hdr     headerspace.Header
	HostTag uint16 // HostTagEmpty when unset
	SubTag  uint8
	InPort  int
}

// Prefix is an IPv4-style prefix match: the top Len bits of a field equal
// the top Len bits of Addr.
type Prefix struct {
	Addr uint32
	Len  int
}

// Contains reports whether v falls in the prefix.
func (p Prefix) Contains(v uint32) bool {
	if p.Len <= 0 {
		return true
	}
	if p.Len >= 32 {
		return p.Addr == v
	}
	shift := uint(32 - p.Len)
	return p.Addr>>shift == v>>shift
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", headerspace.FormatIPv4(p.Addr), p.Len)
}

// Field names one match field; a Match's presence mask is a set of them.
type Field uint8

// Match fields, one presence bit each.
const (
	FieldHostTag Field = 1 << iota
	FieldSubTag
	FieldInPort
	FieldSrc
	FieldDst
	FieldProto
	FieldSrcPort
	FieldDstPort
)

// Match is a ternary match in the flat layout of Open vSwitch's
// classifier: the field values inline, plus a mask of the fields that are
// concrete. A field whose bit is clear is a wildcard and holds its zero
// value, so two matches are Equal exactly when they are ==. A set field is
// concrete even at its zero value: HostTag deliberately distinguishes
// "wildcard" from "must be empty" (WithHostTag(HostTagEmpty)), which Table
// III's classification rows rely on. The With* setters are the only way
// to set a value, and they set its bit with it. APPLE's rules never match
// the protocol or a transport port, so those three setters live with the
// tests, which drive the whole 5-tuple through the matchers.
//
// A prefix is kept as its address and its length clamped to 0..32, the
// bits Prefix.Contains compares: a length below 0 matches as 0 does and
// one above 32 as 32 does, so WithSrc(Prefix{a, 40}) reads back, and is
// Equal to, WithSrc(Prefix{a, 32}). That packs a Match into 32 bytes.
type Match struct {
	inPort                    int
	srcAddr, dstAddr          uint32
	hostTag, srcPort, dstPort uint16
	srcLen, dstLen            int8
	subTag, proto             uint8
	set                       Field
}

// Has reports whether field f is concrete (not a wildcard).
func (m Match) Has(f Field) bool { return m.set&f != 0 }

// WithHostTag returns m matching host tag v.
func (m Match) WithHostTag(v uint16) Match { m.hostTag, m.set = v, m.set|FieldHostTag; return m }

// WithSubTag returns m matching sub-class tag v.
func (m Match) WithSubTag(v uint8) Match { m.subTag, m.set = v, m.set|FieldSubTag; return m }

// WithInPort returns m matching ingress port v.
func (m Match) WithInPort(v int) Match { m.inPort, m.set = v, m.set|FieldInPort; return m }

// WithSrc returns m matching source prefix p, its length clamped to 0..32.
func (m Match) WithSrc(p Prefix) Match {
	m.srcAddr, m.srcLen, m.set = p.Addr, clampLen(p.Len), m.set|FieldSrc
	return m
}

// WithDst returns m matching destination prefix p, its length clamped to
// 0..32.
func (m Match) WithDst(p Prefix) Match {
	m.dstAddr, m.dstLen, m.set = p.Addr, clampLen(p.Len), m.set|FieldDst
	return m
}

// HostTag returns the matched host tag and whether the field is concrete.
func (m Match) HostTag() (uint16, bool) { return m.hostTag, m.Has(FieldHostTag) }

// SubTag returns the matched sub-class tag and whether the field is
// concrete.
func (m Match) SubTag() (uint8, bool) { return m.subTag, m.Has(FieldSubTag) }

// InPort returns the matched ingress port and whether the field is
// concrete.
func (m Match) InPort() (int, bool) { return m.inPort, m.Has(FieldInPort) }

// Src returns the matched source prefix, its length clamped to 0..32, and
// whether the field is concrete.
func (m Match) Src() (Prefix, bool) { return m.src(), m.Has(FieldSrc) }

// Dst returns the matched destination prefix, its length clamped to
// 0..32, and whether the field is concrete.
func (m Match) Dst() (Prefix, bool) { return m.dst(), m.Has(FieldDst) }

func (m Match) src() Prefix { return Prefix{Addr: m.srcAddr, Len: int(m.srcLen)} }

func (m Match) dst() Prefix { return Prefix{Addr: m.dstAddr, Len: int(m.dstLen)} }

// Proto returns the matched IP protocol and whether the field is concrete.
func (m Match) Proto() (uint8, bool) { return m.proto, m.Has(FieldProto) }

// SrcPort returns the matched source port and whether the field is
// concrete.
func (m Match) SrcPort() (uint16, bool) { return m.srcPort, m.Has(FieldSrcPort) }

// DstPort returns the matched destination port and whether the field is
// concrete.
func (m Match) DstPort() (uint16, bool) { return m.dstPort, m.Has(FieldDstPort) }

// Matches reports whether the packet satisfies every non-wildcard field.
func (m Match) Matches(p Packet) bool {
	if m.Has(FieldHostTag) && m.hostTag != p.HostTag {
		return false
	}
	if m.Has(FieldSubTag) && m.subTag != p.SubTag {
		return false
	}
	if m.Has(FieldInPort) && m.inPort != p.InPort {
		return false
	}
	if m.Has(FieldSrc) && !m.src().Contains(p.Hdr.SrcIP) {
		return false
	}
	if m.Has(FieldDst) && !m.dst().Contains(p.Hdr.DstIP) {
		return false
	}
	if m.Has(FieldProto) && m.proto != p.Hdr.Proto {
		return false
	}
	if m.Has(FieldSrcPort) && m.srcPort != p.Hdr.SrcPort {
		return false
	}
	if m.Has(FieldDstPort) && m.dstPort != p.Hdr.DstPort {
		return false
	}
	return true
}

// Subsumes reports whether every packet matching o also matches m (m is at
// least as general field-by-field). Used to detect shadowed rules.
func (m Match) Subsumes(o Match) bool {
	if m.set&^o.set != 0 {
		return false // a field m sets and o leaves open
	}
	pfx := func(f Field, a, b Prefix) bool {
		return !m.Has(f) || (b.Len >= a.Len && a.Contains(b.Addr))
	}
	return (!m.Has(FieldHostTag) || m.hostTag == o.hostTag) &&
		(!m.Has(FieldSubTag) || m.subTag == o.subTag) &&
		(!m.Has(FieldInPort) || m.inPort == o.inPort) &&
		pfx(FieldSrc, m.src(), o.src()) && pfx(FieldDst, m.dst(), o.dst()) &&
		(!m.Has(FieldProto) || m.proto == o.proto) &&
		(!m.Has(FieldSrcPort) || m.srcPort == o.srcPort) &&
		(!m.Has(FieldDstPort) || m.dstPort == o.dstPort)
}

// Equal reports whether m and o are the same ternary match, field by
// field. A wildcard equals only a wildcard: a field set to its zero value
// — WithHostTag(HostTagEmpty) above all — is a different match.
func (m Match) Equal(o Match) bool { return m == o }

// ActionType enumerates rule actions.
type ActionType uint8

// Rule actions. A rule's action list executes in order; Forward and Drop
// and GotoTable terminate processing of the current table.
const (
	ActForward ActionType = iota + 1 // output to a port
	ActSetHostTag
	ActSetSubTag
	ActGotoTable
	ActDrop
)

// String returns the action type name.
func (a ActionType) String() string {
	switch a {
	case ActForward:
		return "forward"
	case ActSetHostTag:
		return "set-host-tag"
	case ActSetSubTag:
		return "set-sub-tag"
	case ActGotoTable:
		return "goto-table"
	case ActDrop:
		return "drop"
	default:
		return fmt.Sprintf("ActionType(%d)", int(a))
	}
}

// Action is one instruction of a rule. The fields are ordered widest
// first so the struct packs into 24 bytes.
type Action struct {
	Port  int    // ActForward
	Table int    // ActGotoTable
	Tag   uint16 // ActSetHostTag / ActSetSubTag
	Type  ActionType
}

// Rule is a prioritized TCAM entry. Higher Priority wins; ties resolve to
// the earlier-installed rule.
type Rule struct {
	Name     string
	Priority int
	Match    Match
	// Actions is read-only once installed: the table keeps the caller's
	// slice itself, and the rules one caller installs may share it, so
	// neither the table nor anyone else writes it afterwards. Lookup hands
	// it out as installed; Rules hands out copies.
	Actions []Action
}

// Equal reports whether r and o install the same TCAM entry: name,
// priority, match, and the action list in order.
func (r Rule) Equal(o Rule) bool {
	return r.Name == o.Name && r.Priority == o.Priority && r.Match.Equal(o.Match) &&
		slices.Equal(r.Actions, o.Actions)
}

// Table is one flow table: an ordered rule list, optionally bounded by a
// TCAM capacity. Tables are safe for concurrent use, and the forwarding
// path is wait-free: mutators (Install, Remove, ApplyBatch, Revert)
// serialize on a write lock, derive the next compiled tuple-space matcher
// from the current one, and publish it as an immutable snapshot through
// an atomic pointer; Lookup and Pipeline.Process read whichever snapshot
// is current and never block, even while a writer holds the lock
// (Lookup-while-Install becomes a linearizable snapshot read). Batched
// installs (ApplyBatch) coalesce a whole update into one critical section
// and one snapshot publication, so readers observe either the pre-batch
// or the post-batch table, never a mid-batch state.
//
// A mutation costs what it changes. Each rule is stored once, as an
// entry that the name index and every snapshot containing it share;
// installing or removing a rule touches O(log n) trie nodes and copies
// nothing else, however many rules the table holds. No structure keeps
// the rules in match order: the compiled snapshot answers lookups, and
// the ordered reads (Rules, Names, Shadowed) sort on demand.
type Table struct {
	mu   sync.RWMutex
	size int // guarded by mu
	// byName maps each installed name to the first entry carrying it; the
	// rest follow on the entries' same-name links, in install order. It
	// makes presence checks O(1) and remove-by-name visit only the rules
	// it removes.
	byName map[string]*entry // guarded by mu
	// nextSeq is the install sequence number the next new rule receives.
	nextSeq uint64 // guarded by mu
	// dups holds the rules of trie tuples that share a packed key with a
	// better-ranked rule (trie.go). No lookup can return them, so no
	// snapshot holds them: they live here until the rule ahead leaves.
	dups dupIndex // guarded by mu
	// draft is the successor snapshot under construction; non-nil only
	// inside a critical section that has mutated the table and not yet
	// published. gen identifies it: tuple headers and trie arrays stamped
	// with the current gen belong to the draft alone and are edited in
	// place, everything else is shared with published snapshots and copied
	// before it is changed. Publishing advances gen, which freezes the
	// draft's headers and arrays.
	draft *compiledTable // guarded by mu
	gen   uint64         // guarded by mu
	// compiled is the current immutable matcher snapshot; nil only before
	// the first publication (an empty table). Mutators republish under
	// mu; readers Load without any lock.
	compiled atomic.Pointer[compiledTable]
	// capacity is the maximum rule count; 0 means unbounded. Immutable
	// after construction, so reads need no lock.
	capacity int
}

// NewTable returns an empty, unbounded table.
func NewTable() *Table { return &Table{} }

// NewBoundedTable returns an empty table that rejects installs beyond the
// given TCAM capacity — the "power-hungry and expensive resource" budget
// the tagging scheme economizes (§I, §V-B). Every production table is
// unbounded today; TestBoundedTable and FuzzTableOps (installs past the
// capacity mid-batch) exercise the bound.
func NewBoundedTable(capacity int) (*Table, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("flowtable: capacity %d must be positive", capacity)
	}
	return &Table{capacity: capacity}, nil
}

// ErrTCAMFull is returned by Install when a bounded table is at capacity.
var ErrTCAMFull = errors.New("flowtable: TCAM full")

// validate checks a rule before installation.
func validateRule(r Rule) error {
	if len(r.Actions) == 0 {
		return fmt.Errorf("flowtable: rule %q has no actions", r.Name)
	}
	for _, a := range r.Actions {
		switch a.Type {
		case ActForward, ActSetHostTag, ActSetSubTag, ActGotoTable, ActDrop:
		default:
			return fmt.Errorf("flowtable: rule %q has unknown action %v", r.Name, a.Type)
		}
		if a.Type == ActSetSubTag && a.Tag > uint16(MaxSubTag) {
			return fmt.Errorf("flowtable: rule %q sets sub tag %d beyond %d", r.Name, a.Tag, MaxSubTag)
		}
		if a.Type == ActSetHostTag && a.Tag > HostTagFin {
			return fmt.Errorf("flowtable: rule %q sets host tag %d beyond %d", r.Name, a.Tag, HostTagFin)
		}
	}
	return nil
}

// lock acquires the write lock, counting acquisitions that had to wait as
// contention events (the TryLock fast path succeeds on an uncontended
// table).
func (t *Table) lock() {
	if t.mu.TryLock() {
		return
	}
	metrics.FlowSetup.TableContention.Add(1)
	t.mu.Lock()
}

// publishLocked swaps the draft in atomically, if the critical section
// made one. Callers hold mu (write), which serializes publications;
// readers pick up the new snapshot on their next Load.
func (t *Table) publishLocked() {
	if t.draft == nil {
		return
	}
	t.compiled.Store(t.draft)
	t.draft = nil
	t.gen++
	metrics.FlowSetup.TableCompiles.Add(1)
}

// draftLocked returns the successor snapshot under construction, starting
// it from the published one on the critical section's first mutation.
func (t *Table) draftLocked() *compiledTable {
	if t.draft == nil {
		t.draft = draftOf(t.compiled.Load())
	}
	return t.draft
}

// linkLocked puts an entry into the name index, at its install-order
// place in its name's chain, and into the draft snapshot. Callers hold mu
// and publish before unlocking.
func (t *Table) linkLocked(e *entry) {
	t.draftLocked().add(t.gen, e, &t.dups)
	t.size++
	if t.byName == nil {
		t.byName = make(map[string]*entry)
	}
	head := t.byName[e.rule.Name]
	if head == nil || e.seq < head.seq {
		e.nextSameName = head
		t.byName[e.rule.Name] = e
		return
	}
	prev := head
	for prev.nextSameName != nil && prev.nextSameName.seq < e.seq {
		prev = prev.nextSameName
	}
	e.nextSameName, prev.nextSameName = prev.nextSameName, e
}

// unlinkLocked takes an entry out of the draft snapshot; the caller has
// already dropped it from the name index.
func (t *Table) unlinkLocked(e *entry) {
	t.draftLocked().remove(t.gen, e, &t.dups)
	t.size--
}

// unnameLocked drops e, and only e, from its name's chain.
func (t *Table) unnameLocked(e *entry) {
	name := e.rule.Name
	head := t.byName[name]
	if head == e {
		if e.nextSameName == nil {
			delete(t.byName, name)
		} else {
			t.byName[name] = e.nextSameName
		}
		return
	}
	prev := head
	for prev.nextSameName != e {
		prev = prev.nextSameName
	}
	prev.nextSameName = e.nextSameName
}

// installLocked adds a rule after every installed rule of the same or a
// higher priority. Callers hold mu and publish before unlocking.
func (t *Table) installLocked(r Rule) (*entry, error) {
	if t.capacity > 0 && t.size >= t.capacity {
		return nil, fmt.Errorf("%w: %d entries", ErrTCAMFull, t.capacity)
	}
	if err := validateRule(r); err != nil {
		return nil, err
	}
	e := &entry{rule: r, seq: t.nextSeq}
	t.nextSeq++
	t.linkLocked(e)
	return e, nil
}

// Install adds a rule, keeping rules sorted by descending priority
// (stable, so equal priorities keep install order). The table keeps
// r.Actions itself, not a copy: the caller must not write it afterwards
// (Rule.Actions). ApplyBatch and ApplyBatchUndo keep their rules' slices
// the same way.
func (t *Table) Install(r Rule) error {
	t.lock()
	defer t.mu.Unlock()
	if _, err := t.installLocked(r); err != nil {
		return err
	}
	t.publishLocked()
	return nil
}

// Remove deletes all rules with the given name and reports how many were
// removed.
func (t *Table) Remove(name string) int {
	t.lock()
	defer t.mu.Unlock()
	removed := 0
	for e := t.removeLocked(name); e != nil; e = e.nextSameName {
		removed++
	}
	t.publishLocked()
	return removed
}

// removeLocked deletes all rules with the given name and returns the
// first of their entries; the others follow on its same-name links, which
// stay intact until a later link rewrites them. Callers hold mu and
// publish before unlocking.
func (t *Table) removeLocked(name string) *entry {
	head := t.byName[name]
	delete(t.byName, name)
	for e := head; e != nil; e = e.nextSameName {
		t.unlinkLocked(e)
	}
	return head
}

// BatchOp is one step of an ApplyBatch. A non-empty Remove deletes every
// rule of that name first; a rule with a name or actions is then
// installed. The table installs what it is given: whether a rule is
// needed is the caller's decision, made before the batch.
type BatchOp struct {
	Remove string
	Rule   Rule
}

// Undo is the inverse of one ApplyBatchUndo: the rules the batch added
// and the rules it removed. It holds the table's own entries, so it is
// sized by the batch, not by the table, and a rule it restores returns to
// the exact position it held.
type Undo struct {
	added, removed []*entry
}

// Removed reports how many rules the batch removed.
func (u Undo) Removed() int { return len(u.removed) }

// ApplyBatch applies the operations in order inside a single critical
// section — the per-table coalescing that turns N rule updates into one
// TCAM transaction. The compiled snapshot is republished exactly once,
// after the last operation, so concurrent lookups observe the batch
// atomically: either none of it or all of it. It returns how many rules
// were installed (removes are not counted). On a validation or capacity error, operations already
// applied remain in place (and are published) and the error is returned;
// callers treat a mid-batch failure as a broken generator, not a
// recoverable state.
func (t *Table) ApplyBatch(ops []BatchOp) (installed int, err error) {
	installed, _, err = t.ApplyBatchUndo(ops)
	return installed, err
}

// ApplyBatchUndo is ApplyBatch that also returns the batch's inverse for
// Revert. The token is valid on error too, covering the operations that
// were applied before the failing one.
func (t *Table) ApplyBatchUndo(ops []BatchOp) (installed int, u Undo, err error) {
	if len(ops) == 0 {
		return 0, u, nil
	}
	t.lock()
	defer t.mu.Unlock()
	defer t.publishLocked()
	metrics.FlowSetup.BatchInstalls.Add(1)
	firstSeq := t.nextSeq
	for _, op := range ops {
		if op.Remove != "" {
			for e := t.removeLocked(op.Remove); e != nil; e = e.nextSameName {
				if e.seq < firstSeq {
					u.removed = append(u.removed, e)
					continue
				}
				// Added earlier in this very batch: the two cancel out.
				// added is in seq order, being appended to as seqs are
				// handed out.
				i, _ := slices.BinarySearchFunc(u.added, e.seq, func(a *entry, seq uint64) int {
					return cmp.Compare(a.seq, seq)
				})
				u.added = slices.Delete(u.added, i, i+1)
			}
		}
		if len(op.Rule.Actions) == 0 && op.Rule.Name == "" {
			continue // remove-only op
		}
		e, err := t.installLocked(op.Rule)
		if err != nil {
			return installed, u, err
		}
		u.added = append(u.added, e)
		installed++
	}
	metrics.FlowSetup.InstalledRules.Add(int64(installed))
	return installed, u, nil
}

// Revert undoes one ApplyBatchUndo in a single critical section and a
// single publication: the rules the batch added leave, the rules it
// removed return with their original install sequence, so rule set,
// match order and lookups are exactly what they were before the batch.
// Tokens of successive batches on one table must be reverted newest
// first, with no other mutation of the table in between.
func (t *Table) Revert(u Undo) {
	if len(u.added)+len(u.removed) == 0 {
		return
	}
	t.lock()
	defer t.mu.Unlock()
	for _, e := range u.added {
		t.unnameLocked(e)
		t.unlinkLocked(e)
	}
	for _, e := range u.removed {
		t.linkLocked(e)
	}
	t.publishLocked()
}

// Size returns the number of installed rules — the TCAM entry count this
// table consumes.
func (t *Table) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Names returns the distinct rule names present in the table, in rule
// order. Audits use it to detect stale entries left behind by a
// partially unwound update.
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// A name's place is that of its first entry in match order.
	firsts := make([]*entry, 0, len(t.byName))
	for _, head := range t.byName {
		first := head
		for e := head.nextSameName; e != nil; e = e.nextSameName {
			if e.before(first) {
				first = e
			}
		}
		firsts = append(firsts, first)
	}
	slices.SortFunc(firsts, byRank)
	out := make([]string, len(firsts))
	for i, e := range firsts {
		out[i] = e.rule.Name
	}
	return out
}

// Rules returns a copy of the rules in match order. The action lists are
// copies too, carved from one array, so a caller may edit what it gets and
// reinstall it without writing into an installed rule.
func (t *Table) Rules() []Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ents := t.sortedLocked()
	n := 0
	for _, e := range ents {
		n += len(e.rule.Actions)
	}
	acts := make([]Action, 0, n)
	out := make([]Rule, len(ents))
	for i, e := range ents {
		out[i] = e.rule
		at := len(acts)
		acts = append(acts, e.rule.Actions...)
		out[i].Actions = acts[at:len(acts):len(acts)]
	}
	return out
}

// sortedLocked returns the installed entries in match order. Rank is a
// total order (seq is unique per table), so the result does not depend on
// the map's iteration order. Callers hold mu.
func (t *Table) sortedLocked() []*entry {
	out := make([]*entry, 0, t.size)
	for _, head := range t.byName {
		for e := head; e != nil; e = e.nextSameName {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, byRank)
	return out
}

// Lookup returns the highest-priority matching rule (ties to the
// earlier-installed rule). It reads the current compiled snapshot and is
// wait-free: it never blocks, not even while a writer holds the table
// lock, and performs zero allocations.
//
//apple:noalloc
func (t *Table) Lookup(p Packet) (Rule, bool) {
	return t.lookupPtr(&p)
}

// lookupPtr is Lookup over a caller-owned packet pointer; the packet is
// read-only. Pipeline.Process uses it directly so a multi-table walk
// never copies the packet struct per hop.
//
//apple:noalloc
func (t *Table) lookupPtr(p *Packet) (Rule, bool) {
	c := t.compiled.Load()
	if c == nil {
		return Rule{}, false
	}
	e := c.lookup(p)
	if e == nil {
		return Rule{}, false
	}
	return e.rule, true
}

// LookupLinear is the reference matcher: one ternary pass over every
// installed rule under a read lock, keeping the matching rule that comes
// first in match order — the rule a priority-ordered TCAM would report.
// It shares nothing with the compiled matcher but the entries, and
// allocates nothing. The fuzz and differential suites run it side by
// side with the compiled Lookup and require byte-identical results; it
// is not meant for the hot path.
func (t *Table) LookupLinear(p Packet) (Rule, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hit *entry
	for _, head := range t.byName {
		for e := head; e != nil; e = e.nextSameName {
			if (hit == nil || e.before(hit)) && e.rule.Match.Matches(p) {
				hit = e
			}
		}
	}
	if hit == nil {
		return Rule{}, false
	}
	return hit.rule, true
}

// Disposition is the final outcome of pipeline processing.
type Disposition int

// Pipeline outcomes.
const (
	DispForward Disposition = iota + 1
	DispDrop
	DispNoMatch
)

// String returns the disposition name.
func (d Disposition) String() string {
	switch d {
	case DispForward:
		return "forward"
	case DispDrop:
		return "drop"
	case DispNoMatch:
		return "no-match"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Result is the outcome of processing a packet through a pipeline.
type Result struct {
	Disposition Disposition
	Port        int    // valid when forwarded
	Rule        string // name of the final matching rule
}

// Pipeline is an ordered sequence of flow tables with OpenFlow-style
// goto-table semantics: processing starts at table 0 and only moves to
// strictly later tables.
type Pipeline struct {
	tables []*Table
}

// NewPipeline creates a pipeline with n empty tables.
func NewPipeline(n int) (*Pipeline, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flowtable: pipeline needs ≥1 table, got %d", n)
	}
	ts := make([]*Table, n)
	for i := range ts {
		ts[i] = NewTable()
	}
	return &Pipeline{tables: ts}, nil
}

// Table returns table i.
func (pl *Pipeline) Table(i int) (*Table, error) {
	if i < 0 || i >= len(pl.tables) {
		return nil, fmt.Errorf("flowtable: table %d out of range [0,%d)", i, len(pl.tables))
	}
	return pl.tables[i], nil
}

// NumTables returns the pipeline length.
func (pl *Pipeline) NumTables() int { return len(pl.tables) }

// TotalSize returns the total TCAM entries across all tables.
func (pl *Pipeline) TotalSize() int {
	n := 0
	for _, t := range pl.tables {
		n += t.Size()
	}
	return n
}

// Process runs the packet through the pipeline, applying tag rewrites to
// the packet in place. It returns the final disposition. The packet
// pointer is passed through every table hop (no per-table struct copy),
// and each table's compiled snapshot is loaded exactly once: goto-table
// only ever moves forward, so a packet resolves the whole chain against
// one coherent snapshot generation per table and is never torn between a
// table's pre- and post-update rules. Process allocates nothing on the
// match path.
func (pl *Pipeline) Process(p *Packet) (Result, error) {
	return pl.process(p, false)
}

// ProcessLinear is Process over the reference linear matcher
// (LookupLinear); the differential suites compare it against Process.
func (pl *Pipeline) ProcessLinear(p *Packet) (Result, error) {
	return pl.process(p, true)
}

func (pl *Pipeline) process(p *Packet, linear bool) (Result, error) {
	if p == nil {
		return Result{}, errors.New("flowtable: nil packet")
	}
	ti := 0
	for {
		var rule Rule
		var ok bool
		if linear {
			rule, ok = pl.tables[ti].LookupLinear(*p)
		} else {
			rule, ok = pl.tables[ti].lookupPtr(p)
		}
		if !ok {
			return Result{Disposition: DispNoMatch}, nil
		}
		next := -1
		for _, a := range rule.Actions {
			switch a.Type {
			case ActSetHostTag:
				p.HostTag = a.Tag
			case ActSetSubTag:
				p.SubTag = uint8(a.Tag)
			case ActForward:
				return Result{Disposition: DispForward, Port: a.Port, Rule: rule.Name}, nil
			case ActDrop:
				return Result{Disposition: DispDrop, Rule: rule.Name}, nil
			case ActGotoTable:
				next = a.Table
			}
		}
		if next < 0 {
			// Rule ended without a terminal action.
			return Result{Disposition: DispNoMatch, Rule: rule.Name}, nil
		}
		if next <= ti || next >= len(pl.tables) {
			return Result{}, fmt.Errorf("flowtable: rule %q goto table %d from table %d is invalid", rule.Name, next, ti)
		}
		ti = next
	}
}

// Has reports whether any rule with the given name is installed: O(1)
// via the name index, and allocation-free.
func (t *Table) Has(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byName[name] != nil
}

// Shadowed returns the names of rules that can never match because an
// earlier (higher-priority or earlier-installed) rule subsumes their
// match. The Rule Generator uses it as a sanity check: a shadowed
// classification rule silently breaks a sub-class.
func (t *Table) Shadowed() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	ents := t.sortedLocked()
	for i, e := range ents {
		for _, earlier := range ents[:i] {
			if earlier.rule.Match.Subsumes(e.rule.Match) {
				out = append(out, e.rule.Name)
				break
			}
		}
	}
	return out
}
