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

// Match is a ternary match. Nil pointer fields are wildcards. HostTag
// deliberately distinguishes "wildcard" (nil) from "must be empty"
// (&HostTagEmpty), which Table III's classification rows rely on.
type Match struct {
	HostTag *uint16
	SubTag  *uint8
	InPort  *int
	Src     *Prefix
	Dst     *Prefix
	Proto   *uint8
	SrcPort *uint16
	DstPort *uint16
}

// U16 returns a pointer to v, for building matches.
func U16(v uint16) *uint16 { return &v }

// U8 returns a pointer to v, for building matches.
func U8(v uint8) *uint8 { return &v }

// IntPtr returns a pointer to v, for building matches.
func IntPtr(v int) *int { return &v }

// PrefixPtr returns a pointer to p, for building matches.
func PrefixPtr(p Prefix) *Prefix { return &p }

// Matches reports whether the packet satisfies every non-wildcard field.
func (m Match) Matches(p Packet) bool {
	if m.HostTag != nil && *m.HostTag != p.HostTag {
		return false
	}
	if m.SubTag != nil && *m.SubTag != p.SubTag {
		return false
	}
	if m.InPort != nil && *m.InPort != p.InPort {
		return false
	}
	if m.Src != nil && !m.Src.Contains(p.Hdr.SrcIP) {
		return false
	}
	if m.Dst != nil && !m.Dst.Contains(p.Hdr.DstIP) {
		return false
	}
	if m.Proto != nil && *m.Proto != p.Hdr.Proto {
		return false
	}
	if m.SrcPort != nil && *m.SrcPort != p.Hdr.SrcPort {
		return false
	}
	if m.DstPort != nil && *m.DstPort != p.Hdr.DstPort {
		return false
	}
	return true
}

// Subsumes reports whether every packet matching o also matches m (m is at
// least as general field-by-field). Used to detect shadowed rules.
func (m Match) Subsumes(o Match) bool {
	genU16 := func(a, b *uint16) bool { return a == nil || (b != nil && *a == *b) }
	genU8 := func(a, b *uint8) bool { return a == nil || (b != nil && *a == *b) }
	genInt := func(a, b *int) bool { return a == nil || (b != nil && *a == *b) }
	genPfx := func(a, b *Prefix) bool {
		if a == nil {
			return true
		}
		if b == nil || b.Len < a.Len {
			return false
		}
		return a.Contains(b.Addr)
	}
	return genU16(m.HostTag, o.HostTag) && genU8(m.SubTag, o.SubTag) &&
		genInt(m.InPort, o.InPort) && genPfx(m.Src, o.Src) && genPfx(m.Dst, o.Dst) &&
		genU8(m.Proto, o.Proto) && genU16(m.SrcPort, o.SrcPort) && genU16(m.DstPort, o.DstPort)
}

// eqField reports whether two optional match fields agree: both
// wildcards, or both set to the same value.
func eqField[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// Equal reports whether m and o are the same ternary match, field by
// field. A wildcard (nil) equals only a wildcard: a field set to its zero
// value — &HostTagEmpty above all — is a different match.
func (m Match) Equal(o Match) bool {
	return eqField(m.HostTag, o.HostTag) && eqField(m.SubTag, o.SubTag) &&
		eqField(m.InPort, o.InPort) && eqField(m.Src, o.Src) && eqField(m.Dst, o.Dst) &&
		eqField(m.Proto, o.Proto) && eqField(m.SrcPort, o.SrcPort) && eqField(m.DstPort, o.DstPort)
}

// ActionType enumerates rule actions.
type ActionType int

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

// Action is one instruction of a rule.
type Action struct {
	Type  ActionType
	Port  int    // ActForward
	Tag   uint16 // ActSetHostTag / ActSetSubTag
	Table int    // ActGotoTable
}

// Rule is a prioritized TCAM entry. Higher Priority wins; ties resolve to
// the earlier-installed rule.
type Rule struct {
	Name     string
	Priority int
	Match    Match
	Actions  []Action
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
// immutable entry that the match-order tree, the name index and every
// snapshot containing it share; installing or removing a rule touches
// O(log n) tree and trie nodes and copies nothing else, however many
// rules the table holds.
type Table struct {
	mu sync.RWMutex
	// order holds the installed entries in match order (priority
	// descending, install order within a priority); see order.go.
	order *orderNode // guarded by mu
	size  int        // guarded by mu
	// byName lists the installed entries carrying each name, so presence
	// checks are O(1) and remove-by-name visits only the rules it removes.
	byName map[string][]*entry // guarded by mu
	// nextSeq is the install sequence number the next new rule receives.
	nextSeq uint64 // guarded by mu
	// draft is the successor snapshot under construction; non-nil only
	// inside a critical section that has mutated the table and not yet
	// published. gen identifies it: trie arrays stamped with the current
	// gen belong to the draft alone and are edited in place, everything
	// else is shared with published snapshots and copied before it is
	// changed. Publishing advances gen, which freezes the draft's arrays.
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
// the tagging scheme economizes (§I, §V-B).
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

// linkLocked puts an entry into the match-order tree, the name index and
// the draft snapshot. Callers hold mu and publish before unlocking.
func (t *Table) linkLocked(e *entry) {
	t.draftLocked().add(t.gen, e)
	t.order = orderInsert(t.order, e)
	t.size++
	if t.byName == nil {
		t.byName = make(map[string][]*entry)
	}
	t.byName[e.rule.Name] = append(t.byName[e.rule.Name], e)
}

// unlinkLocked takes an entry out of the match-order tree and the draft
// snapshot; the caller has already dropped it from the name index.
func (t *Table) unlinkLocked(e *entry) {
	t.draftLocked().remove(t.gen, e)
	t.order = orderRemove(t.order, e)
	t.size--
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
// (stable, so equal priorities keep install order).
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
	removed := len(t.removeLocked(name))
	t.publishLocked()
	return removed
}

// removeLocked deletes all rules with the given name and returns their
// entries. Callers hold mu and publish before unlocking.
func (t *Table) removeLocked(name string) []*entry {
	removed := t.byName[name]
	delete(t.byName, name)
	for _, e := range removed {
		t.unlinkLocked(e)
	}
	return removed
}

// BatchOp is one step of an ApplyBatch. A non-empty Remove deletes every
// rule of that name first; a rule with actions is then installed, unless
// SkipIfPresent is set and a rule of the same name is already in the
// table (the idempotent install the Rule Generator uses for shared
// routing, host-match, and pass-by rows).
type BatchOp struct {
	Remove        string
	Rule          Rule
	SkipIfPresent bool
}

// Equal reports whether op and o are the same batch step.
func (op BatchOp) Equal(o BatchOp) bool {
	return op.Remove == o.Remove && op.SkipIfPresent == o.SkipIfPresent && op.Rule.Equal(o.Rule)
}

// BatchEqual reports whether two batches would apply the same steps in
// the same order — the Rule Generator's test for "this table's rules
// compile identically, leave it alone".
func BatchEqual(a, b []BatchOp) bool {
	return slices.EqualFunc(a, b, BatchOp.Equal)
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
// were actually installed (skip-if-present hits and removes are not
// counted). On a validation or capacity error, operations already
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
			for _, e := range t.removeLocked(op.Remove) {
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
		if op.SkipIfPresent && t.hasLocked(op.Rule.Name) {
			metrics.FlowSetup.SkippedRules.Add(1)
			continue
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
		if named := t.byName[e.rule.Name]; len(named) == 1 {
			delete(t.byName, e.rule.Name)
		} else {
			i := slices.Index(named, e)
			t.byName[e.rule.Name] = slices.Delete(named, i, i+1)
		}
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
	seen := make(map[string]bool, len(t.byName))
	out := make([]string, 0, len(t.byName))
	t.order.walk(func(e *entry) bool {
		if !seen[e.rule.Name] {
			seen[e.rule.Name] = true
			out = append(out, e.rule.Name)
		}
		return len(out) < len(t.byName)
	})
	return out
}

// Rules returns a copy of the rules in match order.
func (t *Table) Rules() []Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rulesLocked()
}

// rulesLocked copies the rules out in match order. Callers hold mu.
func (t *Table) rulesLocked() []Rule {
	out := make([]Rule, 0, t.size)
	t.order.walk(func(e *entry) bool {
		out = append(out, e.rule)
		return true
	})
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

// LookupLinear is the reference matcher: the ternary linear scan over
// the live rule list under a read lock, exactly as a priority-ordered
// TCAM would evaluate it. The fuzz and differential suites run it side
// by side with the compiled Lookup and require byte-identical results;
// it is not meant for the hot path.
func (t *Table) LookupLinear(p Packet) (Rule, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hit *entry
	t.order.walk(func(e *entry) bool {
		if e.rule.Match.Matches(p) {
			hit = e
		}
		return hit == nil
	})
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

// Has reports whether any rule with the given name is installed.
func (t *Table) Has(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hasLocked(name)
}

// hasLocked reports whether any rule with the given name is installed.
// Callers hold mu (read or write). O(1) via the name index.
func (t *Table) hasLocked(name string) bool {
	return len(t.byName[name]) > 0
}

// Shadowed returns the names of rules that can never match because an
// earlier (higher-priority or earlier-installed) rule subsumes their
// match. The Rule Generator uses it as a sanity check: a shadowed
// classification rule silently breaks a sub-class.
func (t *Table) Shadowed() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	rules := t.rulesLocked()
	for i, r := range rules {
		for _, earlier := range rules[:i] {
			if earlier.Match.Subsumes(r.Match) {
				out = append(out, r.Name)
				break
			}
		}
	}
	return out
}
