package flowtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Native fuzz targets for the TCAM model. Each derives structured rules,
// matches, and packets from the raw fuzz input and checks the semantic
// properties the Rule Generator and the enforcement checker rely on:
// Lookup respects priority order, Subsumes is a genuine partial order that
// implies match containment, and Shadowed never flags a rule that can win
// a lookup.

// fuzzRules decodes up to 32 rules from the input, consuming 8 bytes per
// rule, and returns the undecoded tail. Rule names are unique by
// construction so shadow/lookup cross-checks can identify rules.
func fuzzRules(data []byte) ([]Rule, []byte) {
	var rules []Rule
	i := 0
	for len(data)-i >= 8 && len(rules) < 32 {
		b := data[i : i+8]
		i += 8
		var m Match
		mask := b[1]
		if mask&1 != 0 {
			m = m.WithHostTag(uint16(b[2]) & 0xFFF)
		}
		if mask&2 != 0 {
			m = m.WithSubTag(b[3] & MaxSubTag)
		}
		if mask&4 != 0 {
			m = m.WithInPort(int(b[4] % 8))
		}
		if mask&8 != 0 {
			m = m.WithSrc(Prefix{Addr: uint32(b[5])<<24 | uint32(b[6])<<16, Len: int(b[7] % 33)})
		}
		if mask&16 != 0 {
			m = m.WithDst(Prefix{Addr: uint32(b[6])<<24 | uint32(b[5])<<8, Len: int(b[2] % 33)})
		}
		if mask&32 != 0 {
			m = m.WithProto(b[3] % 3)
		}
		if mask&64 != 0 {
			m = m.WithSrcPort(uint16(b[2]) % 8)
		}
		if mask&128 != 0 {
			m = m.WithDstPort(uint16(b[7]) % 8)
		}
		rules = append(rules, Rule{
			Name:     fmt.Sprintf("r%d", len(rules)),
			Priority: int(b[0] % 16),
			Match:    m,
			Actions:  []Action{{Type: ActForward, Port: int(b[4])}},
		})
	}
	return rules, data[i:]
}

// fuzzPacket decodes one packet, consuming up to 8 bytes. Field values are
// biased toward the small ranges the decoded rules use so matches happen.
func fuzzPacket(data []byte) Packet {
	var b [8]byte
	copy(b[:], data)
	var pkt Packet
	pkt.Hdr.SrcIP = uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])
	pkt.Hdr.DstIP = uint32(b[4])<<24 | uint32(b[5])<<8
	pkt.Hdr.Proto = b[0] % 3
	pkt.Hdr.SrcPort = uint16(b[3]) % 8
	pkt.Hdr.DstPort = uint16(b[4]) % 8
	pkt.HostTag = uint16(b[6]) & 0xFFF
	pkt.SubTag = b[7] & MaxSubTag
	pkt.InPort = int(b[0] % 8)
	return pkt
}

// FuzzMatchLookup checks that Lookup always returns the highest-priority
// matching rule (ties to the earlier install), that the winner actually
// matches, that the compiled matcher and the linear reference scan agree
// byte for byte, and that Shadowed never flags a rule that just won a
// lookup.
func FuzzMatchLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 9, 1, 2, 3, 10, 20, 24, 200, 100, 10, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 7, 7, 7})
	f.Add([]byte{5, 255, 1, 2, 3, 10, 20, 24, 5, 192, 2, 2, 3, 10, 20, 31, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, rest := fuzzRules(data)
		tbl := NewTable()
		for _, r := range rules {
			if err := tbl.Install(r); err != nil {
				t.Fatalf("install %q: %v", r.Name, err)
			}
		}
		pkt := fuzzPacket(rest)
		got, ok := tbl.Lookup(pkt)
		// Differential contract: the compiled tuple-space matcher must be
		// byte-identical to the linear TCAM scan, tie-breaks included.
		gotLin, okLin := tbl.LookupLinear(pkt)
		if ok != okLin || !reflect.DeepEqual(got, gotLin) {
			t.Fatalf("compiled Lookup (%+v, %v) differs from LookupLinear (%+v, %v)",
				got, ok, gotLin, okLin)
		}
		// Reference: first match over the priority-ordered rule copy.
		var want Rule
		wantOK := false
		for _, r := range tbl.Rules() {
			if r.Match.Matches(pkt) {
				want, wantOK = r, true
				break
			}
		}
		if ok != wantOK {
			t.Fatalf("Lookup ok=%v, reference scan ok=%v", ok, wantOK)
		}
		if !ok {
			return
		}
		if got.Name != want.Name || got.Priority != want.Priority {
			t.Fatalf("Lookup returned %q prio %d, reference scan %q prio %d",
				got.Name, got.Priority, want.Name, want.Priority)
		}
		if !got.Match.Matches(pkt) {
			t.Fatalf("Lookup winner %q does not match the packet", got.Name)
		}
		for _, r := range tbl.Rules() {
			if r.Priority > got.Priority && r.Match.Matches(pkt) {
				t.Fatalf("rule %q (prio %d) matches but Lookup returned %q (prio %d)",
					r.Name, r.Priority, got.Name, got.Priority)
			}
		}
		// A rule that wins a lookup is reachable, so the shadow analysis
		// must never have flagged it.
		for _, name := range tbl.Shadowed() {
			if name == got.Name {
				t.Fatalf("Shadowed flagged %q, which just won a lookup", name)
			}
		}
	})
}

// fuzzMatch decodes a single match from 8 bytes.
func fuzzMatch(b []byte) Match {
	var buf [8]byte
	copy(buf[:], b)
	rules, _ := fuzzRules(buf[:])
	if len(rules) == 0 {
		return Match{}
	}
	return rules[0].Match
}

// FuzzSubsumes checks that Subsumes is reflexive and transitive, and that
// it soundly implies match containment: if m subsumes o, every packet o
// matches is also matched by m.
func FuzzSubsumes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 15, 3, 4, 5, 6, 7, 8, 1, 8, 3, 4, 5, 6, 7, 16, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var bufs [3][]byte
		for i := range bufs {
			if len(data) >= 8 {
				bufs[i], data = data[:8], data[8:]
			}
		}
		a, b, c := fuzzMatch(bufs[0]), fuzzMatch(bufs[1]), fuzzMatch(bufs[2])
		for _, m := range []Match{a, b, c} {
			if !m.Subsumes(m) {
				t.Fatalf("Subsumes is not reflexive for %+v", m)
			}
		}
		if a.Subsumes(b) && b.Subsumes(c) && !a.Subsumes(c) {
			t.Fatalf("Subsumes is not transitive: a⊇b, b⊇c, but !(a⊇c)")
		}
		pkt := fuzzPacket(data)
		if a.Subsumes(b) && b.Matches(pkt) && !a.Matches(pkt) {
			t.Fatalf("a subsumes b and b matches packet %+v, but a does not", pkt)
		}
	})
}

// FuzzPrefixContains checks prefix-match algebra: a prefix contains its
// own base address, shortening a prefix only widens it, out-of-range
// lengths behave as documented, and prefix subsumption implies
// containment.
func FuzzPrefixContains(f *testing.F) {
	f.Add(uint32(0x0A010100), 24, uint32(0x0A0101FF))
	f.Add(uint32(0), 0, uint32(0xFFFFFFFF))
	f.Add(uint32(0xDEADBEEF), 32, uint32(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, addr uint32, length int, v uint32) {
		length %= 40
		if length < 0 {
			length = -length
		}
		p := Prefix{Addr: addr, Len: length}
		if !p.Contains(p.Addr) {
			t.Fatalf("%v does not contain its own base address", p)
		}
		if p.Len <= 0 && !p.Contains(v) {
			t.Fatalf("zero-length prefix %v must contain %#x", p, v)
		}
		// Reference semantics: top min(Len,32) bits equal.
		want := true
		if p.Len >= 32 {
			want = p.Addr == v
		} else if p.Len > 0 {
			shift := uint(32 - p.Len)
			want = p.Addr>>shift == v>>shift
		}
		if got := p.Contains(v); got != want {
			t.Fatalf("%v.Contains(%#x) = %v, want %v", p, v, got, want)
		}
		// Shortening widens.
		if p.Contains(v) && p.Len > 0 {
			q := Prefix{Addr: addr, Len: p.Len - 1}
			if !q.Contains(v) {
				t.Fatalf("%v contains %#x but the shorter %v does not", p, v, q)
			}
		}
		// Prefix subsumption (the genPfx rule in Match.Subsumes, which
		// compares the lengths a Match stores, clamped to 0..32) implies
		// containment.
		q := Prefix{Addr: v, Len: length/2 + length%2}
		if clampLen(q.Len) >= clampLen(p.Len) && p.Contains(q.Addr) {
			m := Match{}.WithSrc(p)
			o := Match{}.WithSrc(q)
			if !m.Subsumes(o) {
				t.Fatalf("match on %v should subsume match on %v", p, q)
			}
			pkt := Packet{}
			pkt.Hdr.SrcIP = q.Addr
			if o.Matches(pkt) && !m.Matches(pkt) {
				t.Fatalf("%v matched a packet %v did not", q, p)
			}
		}
	})
}

// modelTable is the plain-slice reference for a mutation sequence: rules
// in match order, maintained by the textbook sorted insert and filter.
type modelTable struct {
	rules    []Rule
	capacity int
}

func (m *modelTable) install(r Rule) error {
	if m.capacity > 0 && len(m.rules) >= m.capacity {
		return ErrTCAMFull
	}
	if err := validateRule(r); err != nil {
		return err
	}
	i := 0
	for i < len(m.rules) && m.rules[i].Priority >= r.Priority {
		i++
	}
	m.rules = append(m.rules[:i], append([]Rule{r}, m.rules[i:]...)...)
	return nil
}

func (m *modelTable) remove(name string) int {
	kept := m.rules[:0:0]
	for _, r := range m.rules {
		if r.Name != name {
			kept = append(kept, r)
		}
	}
	removed := len(m.rules) - len(kept)
	m.rules = kept
	return removed
}

// applyBatch mirrors ApplyBatch's contract, including "operations before
// a failing one stay applied".
func (m *modelTable) applyBatch(ops []BatchOp) (installed int, err error) {
	for _, op := range ops {
		if op.Remove != "" {
			m.remove(op.Remove)
		}
		if len(op.Rule.Actions) == 0 && op.Rule.Name == "" {
			continue
		}
		if err := m.install(op.Rule); err != nil {
			return installed, err
		}
		installed++
	}
	return installed, nil
}

// packetFor builds a packet that satisfies m; spare decides the fields m
// leaves open.
func packetFor(m Match, spare Packet) Packet {
	p := spare
	if v, ok := m.HostTag(); ok {
		p.HostTag = v
	}
	if v, ok := m.SubTag(); ok {
		p.SubTag = v
	}
	if v, ok := m.InPort(); ok {
		p.InPort = v
	}
	if v, ok := m.Src(); ok {
		p.Hdr.SrcIP = v.Addr
	}
	if v, ok := m.Dst(); ok {
		p.Hdr.DstIP = v.Addr
	}
	if v, ok := m.Proto(); ok {
		p.Hdr.Proto = v
	}
	if v, ok := m.SrcPort(); ok {
		p.Hdr.SrcPort = v
	}
	if v, ok := m.DstPort(); ok {
		p.Hdr.DstPort = v
	}
	return p
}

// checkTableAgainstModel requires the table to be indistinguishable from
// the model: same rules in the same order, strictly increasing in rank;
// the same distinct names in that order; Has agreeing on every name of
// the pool n0..n<pool-1>; and, for a packet aimed at every installed rule
// plus one stray, the same winner from the compiled Lookup, from
// LookupLinear, from a first-match scan of the model, and from a table
// built from scratch out of Rules().
func checkTableAgainstModel(t *testing.T, when string, tbl *Table, m *modelTable, pool int, stray Packet) {
	t.Helper()
	got := tbl.Rules()
	if len(got) != len(m.rules) || tbl.Size() != len(m.rules) {
		t.Fatalf("%s: table has %d rules (Size %d), model %d", when, len(got), tbl.Size(), len(m.rules))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], m.rules[i]) {
			t.Fatalf("%s: rule %d is %+v, model has %+v", when, i, got[i], m.rules[i])
		}
	}
	// Every rule of a sequence forwards to its own port, which finds the
	// entry behind each rule Rules() returned.
	var prev *entry
	for _, r := range got {
		e := entryOf(tbl, r)
		if e == nil || (prev != nil && !prev.before(e)) {
			t.Fatalf("%s: Rules() not strictly increasing in rank at %q", when, r.Name)
		}
		prev = e
	}
	var names []string
	seen := make(map[string]bool)
	for _, r := range m.rules {
		if !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
	}
	if gotNames := tbl.Names(); !slices.Equal(gotNames, names) {
		t.Fatalf("%s: Names() = %v, model %v", when, gotNames, names)
	}
	for i := 0; i < pool; i++ {
		name := fmt.Sprintf("n%d", i)
		if got, want := tbl.Has(name), seen[name]; got != want {
			t.Fatalf("%s: Has(%q) = %v, model %v", when, name, got, want)
		}
	}
	rebuilt := NewTable()
	ops := make([]BatchOp, len(got))
	for i, r := range got {
		ops[i] = BatchOp{Rule: r}
	}
	if _, err := rebuilt.ApplyBatch(ops); err != nil {
		t.Fatalf("%s: rebuilding from Rules(): %v", when, err)
	}
	pkts := []Packet{stray}
	for _, r := range m.rules {
		pkts = append(pkts, packetFor(r.Match, stray))
	}
	for _, pkt := range pkts {
		var want Rule
		wantOK := false
		for _, r := range m.rules {
			if r.Match.Matches(pkt) {
				want, wantOK = r, true
				break
			}
		}
		for _, c := range []struct {
			how string
			f   func(Packet) (Rule, bool)
		}{
			{"Lookup", tbl.Lookup},
			{"LookupLinear", tbl.LookupLinear},
			{"rebuilt Lookup", rebuilt.Lookup},
		} {
			if r, ok := c.f(pkt); ok != wantOK || !reflect.DeepEqual(r, want) {
				t.Fatalf("%s: %s(%+v) = (%+v, %v), model scan (%+v, %v)", when, c.how, pkt, r, ok, want, wantOK)
			}
		}
	}
}

// runTableOps decodes data into a mutation sequence — Install, Remove,
// ApplyBatchUndo (removes, a rule that fails validation
// mid-batch, installs beyond the TCAM capacity) and Revert of the newest
// outstanding batch — runs it against a bounded table and the slice
// model, and compares the two after every step. The model reverts by
// restoring a saved copy of its slice, so a Revert that misplaces a rule
// or forgets one shows as a difference. Each published snapshot is held
// for the next few steps (how many, the input's capacity byte says) and
// must keep its answers through them.
//
// A sequence that begins with tableOpsLarge runs the large variant.
func runTableOps(t *testing.T, data []byte) (st tableOpsStats) {
	large := len(data) > 0 && data[0] == tableOpsLarge
	names, maxBatch, maxSteps := 6, 6, 64
	if large {
		names, maxBatch, maxSteps = 24, 64, 256
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// Names come from a small pool so that removes and several rules
	// under one name both happen; every rule still carries a unique
	// forward port, so DeepEqual tells same-named rules apart.
	// One rule in four repeats the previous rule's match exactly, so
	// several rules end up under one packed key. In the large variant
	// three rules in four are of one shape, host tag and /24 source.
	serial := 0
	var last Match
	rule := func() Rule {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		rs, _ := fuzzRules(b[:])
		r := rs[0]
		r.Name = fmt.Sprintf("n%d", int(b[7])%names)
		if large && b[0]&3 != 0 {
			r.Match = Match{}.WithHostTag(uint16(b[2])<<4 | uint16(b[3]&0xF)).
				WithSrc(Prefix{Addr: uint32(b[5])<<24 | uint32(b[6])<<16 | uint32(b[4])<<8, Len: 24})
		}
		if b[0]>>6 == 3 {
			r.Match = last
		}
		last = r.Match
		serial++
		r.Actions = []Action{{Type: ActForward, Port: serial}}
		return r
	}
	// The capacity byte's high part is how many steps each published
	// snapshot is held for: 1–7, or 1–4 in the large variant.
	cb := int(next())
	capacity, hold := 8+cb%40, 1+cb/40
	if large { // cb was tableOpsLarge
		cb = int(next())
		capacity, hold = 560+cb%80, 1+cb/80
	}
	tbl, err := NewBoundedTable(capacity)
	if err != nil {
		t.Fatal(err)
	}
	model := &modelTable{capacity: capacity}
	stray := fuzzPacket([]byte{next(), next(), next(), next(), next(), next(), next(), next()})
	type pending struct {
		undo  Undo
		rules []Rule // the model before the batch
	}
	var undos []pending
	var held []heldSnapshot
	for step := 0; len(data) > 0 && step < maxSteps; step++ {
		var when string
		switch op := next(); op % 4 {
		case 0:
			r := rule()
			when = fmt.Sprintf("step %d Install(%s p%d)", step, r.Name, r.Priority)
			gotErr, wantErr := tbl.Install(r), model.install(r)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v, model %v", when, gotErr, wantErr)
			}
			undos = nil // tokens only revert newest-first with nothing in between
		case 1:
			name := fmt.Sprintf("n%d", int(next())%names)
			when = fmt.Sprintf("step %d Remove(%s)", step, name)
			if got, want := tbl.Remove(name), model.remove(name); got != want {
				t.Fatalf("%s: removed %d, model %d", when, got, want)
			}
			undos = nil
		case 2:
			var ops []BatchOp
			for n := 1 + int(next())%maxBatch; n > 0; n-- {
				// Bit 0 adds a removal, bit 1 a rule, and bits 3–7 all
				// set make that rule invalid. Bit 2 once asked for a
				// skip-if-present install and is ignored, so the
				// checked-in corpus still decodes to the same ops.
				flags := next()
				var bo BatchOp
				if flags&1 != 0 {
					bo.Remove = fmt.Sprintf("n%d", int(next())%names)
				}
				if flags&2 != 0 {
					bo.Rule = rule()
					if flags&0xF8 == 0xF8 {
						bo.Rule.Actions = nil // fails validation mid-batch
					}
				}
				ops = append(ops, bo)
			}
			when = fmt.Sprintf("step %d ApplyBatch(%d ops)", step, len(ops))
			before := slices.Clone(model.rules)
			got, undo, gotErr := tbl.ApplyBatchUndo(ops)
			want, wantErr := model.applyBatch(ops)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: installed %d err %v, model %d err %v", when, got, gotErr, want, wantErr)
			}
			undos = append(undos, pending{undo, before})
		case 3:
			if len(undos) == 0 {
				continue
			}
			when = fmt.Sprintf("step %d Revert(batch %d)", step, len(undos)-1)
			last := undos[len(undos)-1]
			undos = undos[:len(undos)-1]
			tbl.Revert(last.undo)
			model.rules = last.rules
			st.reverts++
		}
		checkTableAgainstModel(t, when, tbl, model, names, stray)
		st.dupsHeld = max(st.dupsHeld, checkDupIndex(t, when, tbl))
		for _, h := range held {
			h.check(t, when)
			if h.full {
				st.heldFull++
			}
		}
		c := tbl.compiled.Load()
		st.observe(c)
		if c != nil {
			held = append(held, holdSnapshot(c, step, st.filled, model.rules, stray))
			if len(held) > hold {
				held = held[1:]
			}
		}
	}
	return st
}

// checkDupIndex requires the table's duplicate index to hold exactly the
// rules of its trie tuples that no slot holds: behind each slot's rule,
// in match order, the rules of the same key, and no list for any other
// rule. It returns how many rules the index holds.
func checkDupIndex(t *testing.T, when string, tbl *Table) int {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	rules, lists, held := 0, 0, 0
	if c := tbl.compiled.Load(); c != nil {
		for _, tp := range c.tuples {
			rules += len(tp.ents)
			tp.root.each(nil, func(best *entry) {
				rules++
				key, prev := ruleKey(&best.rule.Match, tp.shape), best
				if tbl.dups[best] != nil {
					lists++
				}
				for d := tbl.dups[best]; d != nil; d = d.next {
					if !prev.before(d.e) || ruleKey(&d.e.rule.Match, tp.shape) != key {
						t.Fatalf("%s: duplicate %q of %q out of match order or of another key", when, d.e.rule.Name, best.rule.Name)
					}
					prev = d.e
					rules++
					held++
				}
			})
		}
	}
	if rules != tbl.size || lists != len(tbl.dups) {
		t.Fatalf("%s: snapshot and duplicate index hold %d rules in %d lists; table has %d rules, index %d lists",
			when, rules, lists, tbl.size, len(tbl.dups))
	}
	return held
}

// heldSnapshot is a snapshot published by an earlier step of a table-ops
// sequence, with the answers it gave then on a packet aimed at each rule
// the table held and on the stray. Later steps must not change them: an
// in-place write into an array the snapshot shares with a later draft
// would.
type heldSnapshot struct {
	c    *compiledTable
	step int
	full bool // published after some tuple's trie root filled
	pkts []Packet
	want []*entry
}

func holdSnapshot(c *compiledTable, step int, full bool, rules []Rule, stray Packet) heldSnapshot {
	h := heldSnapshot{c: c, step: step, full: full, pkts: []Packet{stray}}
	for _, r := range rules {
		h.pkts = append(h.pkts, packetFor(r.Match, stray))
	}
	for i := range h.pkts {
		h.want = append(h.want, c.lookup(&h.pkts[i]))
	}
	return h
}

func (h heldSnapshot) check(t *testing.T, when string) {
	t.Helper()
	for i := range h.pkts {
		if got := h.c.lookup(&h.pkts[i]); got != h.want[i] {
			t.Fatalf("%s: snapshot of step %d changed its answer for %+v: %p, was %p", when, h.step, h.pkts[i], got, h.want[i])
		}
	}
}

// entryOf returns the installed entry holding r (its forward port is
// unique in the table), or nil.
func entryOf(tbl *Table, r Rule) *entry {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for e := tbl.byName[r.Name]; e != nil; e = e.nextSameName {
		if e.rule.Actions[0].Port == r.Actions[0].Port {
			return e
		}
	}
	return nil
}

// tableOpsLarge, as the first byte of a table-ops sequence, selects the
// large variant: a TCAM of 560–639 rules, batches of up to 64 steps, 24
// rule names, and three rules in four of one shape, so that a sequence can
// fill a trie root's every page and drain the tuple again. No sequence of
// TestTableOpsRandom's small variant begins with it.
const tableOpsLarge = 0xFB

// tableOpsStats records what a table-ops sequence reached.
type tableOpsStats struct {
	full    shapeKey // the shape of a tuple seen with every root page present
	filled  bool
	drained bool // that tuple was later seen below the trie cutoff
	reverts int
	// heldFull counts the checks, after a later step, of a held snapshot
	// published after that tuple filled.
	heldFull int
	// dupsHeld is the most rules the duplicate index held after a step.
	dupsHeld int
}

func (st *tableOpsStats) observe(c *compiledTable) {
	if c == nil {
		return
	}
	if st.filled {
		i := c.indexOf(st.full)
		st.drained = st.drained || i >= 0 && !c.tuples[i].trie
		return
	}
	for _, tp := range c.tuples {
		if tp.trie && !slices.Contains(tp.root.pages[:], nil) {
			st.full, st.filled = tp.shape, true
		}
	}
}

// FuzzTableOps checks mutation *sequences*: with incremental publication
// a table's snapshot depends on every batch that came before, which a
// build-then-look-up target like FuzzMatchLookup never exercises.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(tableOpsSeed(1, 120))
	f.Add(tableOpsSeed(2, 240))
	// Twelve installs of one shape (a trie tuple), then removes that take
	// it back under the cutoff, then a batch and its revert.
	seed := []byte{200, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := byte(0); i < 12; i++ {
		seed = append(seed, 0, 3, 1, i, 0, 0, 0, 0, i%6)
	}
	for i := byte(0); i < 6; i++ {
		seed = append(seed, 1, i)
	}
	seed = append(seed, 2, 2, 3, 1, 5, 1, 9, 0, 0, 0, 0, 1, 7, 2, 5, 1, 9, 0, 0, 0, 0, 1, 3)
	f.Add(seed)
	f.Add(tableOpsLargeSeed(1))
	f.Add(tableOpsDupSeed())
	f.Fuzz(func(t *testing.T, data []byte) { runTableOps(t, data) })
}

// tableOpsSeed returns n pseudo-random bytes, biased toward few match
// shapes so tuples grow past the hash cutoff.
func tableOpsSeed(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(256))
		if rng.Intn(3) > 0 {
			out[i] &= 0xC7
		}
	}
	return out
}

// tableOpsLargeSeed returns a large-variant sequence in three phases. It
// fills the TCAM in batches of 64, mostly with rules of the one shape, so
// that the shape's trie root gets every page; one batch is reverted and
// replayed, and the last ones run into the capacity mid-batch. It then
// replaces names in a batch and reverts it, and removes the 24 names one
// by one, which empties the table. Last, a batch takes the shape past the
// trie cutoff and is reverted, and a second one does the same and is
// removed name by name, below the cutoff before the table is empty.
func tableOpsLargeSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{tableOpsLarge, byte(rng.Intn(80))}
	bytes := func(n int) {
		for ; n > 0; n-- {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	bytes(8) // the stray packet
	batch := func(n, replaceOneIn int) {
		out = append(out, 2, byte(n-1))
		for ; n > 0; n-- {
			switch {
			case rng.Intn(replaceOneIn) == 0:
				out = append(out, 3, byte(rng.Intn(24))) // remove a name, install
			case rng.Intn(16) == 0:
				out = append(out, 6) // install unless the name is present
			default:
				out = append(out, 2)
			}
			bytes(8)
		}
	}
	const revert = 3
	removeAll := func() {
		for _, name := range rng.Perm(24) {
			out = append(out, 1, byte(name))
		}
	}
	for i := 0; i < 12; i++ {
		batch(64, 512)
		if i == 4 {
			out = append(out, revert)
			batch(64, 512)
		}
	}
	batch(8, 1)
	out = append(out, revert)
	removeAll()
	batch(24, 512)
	out = append(out, revert)
	batch(24, 512)
	removeAll()
	return out
}

// tableOpsChurnSeed returns a large-variant sequence that fills a trie
// root and then churns it while snapshots are held: each is held for
// four steps. Eleven batches of 64 installs fill the TCAM, mostly with
// rules of the one shape, so that its root gets every page; two names
// are then removed to make room, and forty steps of single installs,
// removes of a name, and two-rule batches (every other one reverted)
// follow.
func tableOpsChurnSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{tableOpsLarge, byte(3*80 + rng.Intn(16))} // hold 4, capacity 560–575
	rule := func() {
		for n := 8; n > 0; n-- {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	for n := 8; n > 0; n-- { // the stray packet
		out = append(out, byte(rng.Intn(256)))
	}
	const install, remove, batch, revert = 0, 1, 2, 3
	const batchInstall = 2 // a batch step's flags: install, no remove
	for i := 0; i < 11; i++ {
		out = append(out, batch, 63)
		for n := 64; n > 0; n-- {
			out = append(out, batchInstall)
			rule()
		}
	}
	out = append(out, remove, byte(rng.Intn(24)), remove, byte(rng.Intn(24)))
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0, 2:
			out = append(out, install)
			rule()
		case 1:
			out = append(out, batch, 1, batchInstall)
			rule()
			out = append(out, batchInstall)
			rule()
			if i%8 == 1 {
				out = append(out, revert)
			}
		case 3:
			out = append(out, remove, byte(rng.Intn(24)))
		}
	}
	return out
}

// tableOpsSameNameSeed returns a small-variant sequence that keeps
// several rules under one name and takes them out again in later
// batches, each of which it then reverts: batch A installs three n0s,
// two n1s and an n2; B adds an n0 and an n1 behind them; C replaces n0
// and removes n1; D installs an n0 and removes every n0 in the same
// batch, then installs another. B, C, D and A are reverted newest first,
// then E installs three n3s, F removes them and is reverted, and a plain
// Remove drops them. Rules of one priority tie on install order, so a
// rule restored to the wrong place in its chain or in match order shows.
func tableOpsSameNameSeed() []byte {
	out := []byte{39, 0, 0, 0, 0, 0, 0, 0, 0} // capacity 47, the stray packet
	serial := byte(0)
	rule := func(prio, name byte) []byte {
		serial++
		return []byte{prio, 0x20, 0, serial, 0, 0, 0, name} // proto serial%3
	}
	const install, remove, removeInstall, revert = 2, 1, 3, 3
	type step struct{ flags, name, prio byte }
	batch := func(steps ...step) {
		out = append(out, 2, byte(len(steps)-1))
		for _, st := range steps {
			out = append(out, st.flags)
			if st.flags&1 != 0 {
				out = append(out, st.name)
			}
			if st.flags&2 != 0 {
				out = append(out, rule(st.prio, st.name)...)
			}
		}
	}
	batch(step{install, 0, 3}, step{install, 0, 5}, step{install, 1, 4},
		step{install, 0, 3}, step{install, 1, 4}, step{install, 2, 1}) // A
	batch(step{install, 0, 3}, step{install, 1, 4}) // B
	out = append(out, revert)
	batch(step{removeInstall, 0, 5}, step{install, 0, 3}, step{remove, 1, 0}, step{install, 1, 2}) // C
	out = append(out, revert)
	batch(step{install, 0, 4}, step{remove, 0, 0}, step{install, 0, 2}) // D
	out = append(out, revert, revert)
	batch(step{install, 3, 1}, step{install, 3, 1}, step{install, 3, 1}) // E
	batch(step{remove, 3, 0}, step{install, 4, 1})                       // F
	out = append(out, revert, 1, 3)
	return out
}

// tableOpsDupSeed returns a small-variant sequence that drives one
// packed key's duplicates through a trie tuple. Nine host-tag rules under
// n5 make the tuple a trie; five rules of one match follow, under n0–n4
// at priorities 3, 7, 5, 3 and 9, so that each new one lands before, in
// the middle of or behind the others. A batch removes the best, n0, and
// is reverted; a batch removes n5 and n0, which folds the trie back to
// slices with the duplicates among them, and is reverted too, which takes
// the tuple past the cutoff again. Then n0 and n2 leave one by one, each
// promoting the next, n5 leaves (the fold again), and the last three go.
// Each snapshot is held for four steps.
func tableOpsDupSeed() []byte {
	out := []byte{3*40 + 39, 0, 0, 0, 0, 0, 0, 0, 0} // capacity 47, hold 4, the stray packet
	const install, remove, batch, revert = 0, 1, 2, 3
	const repeat = 0xC0 // a rule byte 0 with both top bits set repeats the last match
	const hostTag = 1   // a rule's field mask: host tag only
	for tag := byte(0); tag < 9; tag++ {
		out = append(out, install, 1, hostTag, tag, 0, 0, 0, 0, 5)
	}
	out = append(out, install, 3, hostTag, 200, 0, 0, 0, 0, 1)
	for _, r := range [][2]byte{{7, 2}, {5, 3}, {3, 4}, {9, 0}} {
		out = append(out, install, repeat|r[0], hostTag, 200, 0, 0, 0, 0, r[1])
	}
	const removeOnly = 1 // a batch step's flags: remove, no install
	out = append(out, batch, 0, removeOnly, 0, revert)
	out = append(out, batch, 1, removeOnly, 5, removeOnly, 0, revert)
	for _, name := range []byte{0, 2, 5, 3, 1, 4} {
		out = append(out, remove, name)
	}
	return out
}

// TestTableOpsRandom runs the FuzzTableOps body over a few hundred
// generated sequences, so plain `go test` covers mutation sequences too.
// Their tables hold 8–47 rules, so no trie root of theirs comes near full;
// the large variant covers full roots, on two sequences that must each
// fill a root, drain it and revert, and on one that churns a full root
// while the snapshots before it are held.
func TestTableOpsRandom(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			runTableOps(t, tableOpsSeed(seed, 100+int(seed)*4))
		}
	})
	t.Run("same-name", func(t *testing.T) {
		if st := runTableOps(t, tableOpsSameNameSeed()); st.reverts != 5 {
			t.Fatalf("same-name sequence ran %d reverts, want 5", st.reverts)
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		if st := runTableOps(t, tableOpsDupSeed()); st.reverts != 2 || st.dupsHeld != 4 {
			t.Fatalf("duplicate sequence: %d reverts, the index held at most %d rules; want 2 and 4", st.reverts, st.dupsHeld)
		}
	})
	t.Run("churn", func(t *testing.T) {
		if st := runTableOps(t, tableOpsChurnSeed(1)); !st.filled || st.heldFull < 4*40 {
			t.Fatalf("churn sequence: root filled %v, %d checks of a held full-root snapshot", st.filled, st.heldFull)
		}
	})
	t.Run("large", func(t *testing.T) {
		for seed := int64(0); seed < 2; seed++ {
			st := runTableOps(t, tableOpsLargeSeed(seed))
			if !st.filled || !st.drained || st.reverts < 3 {
				t.Fatalf("large sequence %d: root filled %v, drained %v, %d reverts", seed, st.filled, st.drained, st.reverts)
			}
		}
	})
}
