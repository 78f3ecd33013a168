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
			m.HostTag = U16(uint16(b[2]) & 0xFFF)
		}
		if mask&2 != 0 {
			m.SubTag = U8(b[3] & MaxSubTag)
		}
		if mask&4 != 0 {
			m.InPort = IntPtr(int(b[4] % 8))
		}
		if mask&8 != 0 {
			m.Src = &Prefix{Addr: uint32(b[5])<<24 | uint32(b[6])<<16, Len: int(b[7] % 33)}
		}
		if mask&16 != 0 {
			m.Dst = &Prefix{Addr: uint32(b[6])<<24 | uint32(b[5])<<8, Len: int(b[2] % 33)}
		}
		if mask&32 != 0 {
			m.Proto = U8(b[3] % 3)
		}
		if mask&64 != 0 {
			m.SrcPort = U16(uint16(b[2]) % 8)
		}
		if mask&128 != 0 {
			m.DstPort = U16(uint16(b[7]) % 8)
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
		// Prefix subsumption (the genPfx rule in Match.Subsumes) implies
		// containment.
		q := Prefix{Addr: v, Len: length/2 + length%2}
		if q.Len >= p.Len && p.Contains(q.Addr) {
			m := Match{Src: &p}
			o := Match{Src: &q}
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

func (m *modelTable) has(name string) bool {
	for _, r := range m.rules {
		if r.Name == name {
			return true
		}
	}
	return false
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
		if op.SkipIfPresent && m.has(op.Rule.Name) {
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
	if m.HostTag != nil {
		p.HostTag = *m.HostTag
	}
	if m.SubTag != nil {
		p.SubTag = *m.SubTag
	}
	if m.InPort != nil {
		p.InPort = *m.InPort
	}
	if m.Src != nil {
		p.Hdr.SrcIP = m.Src.Addr
	}
	if m.Dst != nil {
		p.Hdr.DstIP = m.Dst.Addr
	}
	if m.Proto != nil {
		p.Hdr.Proto = *m.Proto
	}
	if m.SrcPort != nil {
		p.Hdr.SrcPort = *m.SrcPort
	}
	if m.DstPort != nil {
		p.Hdr.DstPort = *m.DstPort
	}
	return p
}

// checkTableAgainstModel requires the table to be indistinguishable from
// the model: same rules in the same order, same name index, and, for a
// packet aimed at every installed rule plus one stray, the same winner
// from the compiled Lookup, from LookupLinear, from a first-match scan of
// the model, and from a table built from scratch out of Rules().
func checkTableAgainstModel(t *testing.T, when string, tbl *Table, m *modelTable, stray Packet) {
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
	var names []string
	seen := make(map[string]bool)
	for _, r := range m.rules {
		if !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
		if !tbl.Has(r.Name) {
			t.Fatalf("%s: Has(%q) = false for an installed rule", when, r.Name)
		}
	}
	if gotNames := tbl.Names(); !reflect.DeepEqual(gotNames, names) && len(names) > 0 {
		t.Fatalf("%s: Names() = %v, model %v", when, gotNames, names)
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
// ApplyBatchUndo (removes, SkipIfPresent, a rule that fails validation
// mid-batch, installs beyond the TCAM capacity) and Revert of the newest
// outstanding batch — runs it against a bounded table and the slice
// model, and compares the two after every step. The model reverts by
// restoring a saved copy of its slice, so a Revert that misplaces a rule
// or forgets one shows as a difference.
func runTableOps(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// Names come from a small pool so that removes, skip-if-present and
	// several rules under one name all happen; every rule still carries a
	// unique forward port, so DeepEqual tells same-named rules apart.
	// One rule in four repeats the previous rule's match exactly, so
	// several rules end up under one packed key.
	serial := 0
	var last Match
	rule := func() Rule {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		rs, _ := fuzzRules(b[:])
		r := rs[0]
		r.Name = fmt.Sprintf("n%d", b[7]%6)
		if b[0]>>6 == 3 {
			r.Match = last
		}
		last = r.Match
		serial++
		r.Actions = []Action{{Type: ActForward, Port: serial}}
		return r
	}
	capacity := 8 + int(next()%40)
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
	for step := 0; len(data) > 0 && step < 64; step++ {
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
			name := fmt.Sprintf("n%d", next()%6)
			when = fmt.Sprintf("step %d Remove(%s)", step, name)
			if got, want := tbl.Remove(name), model.remove(name); got != want {
				t.Fatalf("%s: removed %d, model %d", when, got, want)
			}
			undos = nil
		case 2:
			var ops []BatchOp
			for n := 1 + int(next()%6); n > 0; n-- {
				flags := next()
				var bo BatchOp
				if flags&1 != 0 {
					bo.Remove = fmt.Sprintf("n%d", next()%6)
				}
				if flags&2 != 0 {
					bo.Rule = rule()
					bo.SkipIfPresent = flags&4 != 0
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
		}
		checkTableAgainstModel(t, when, tbl, model, stray)
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
	f.Fuzz(runTableOps)
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

// TestTableOpsRandom runs the FuzzTableOps body over a few hundred
// generated sequences, so plain `go test` covers mutation sequences too.
func TestTableOpsRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		runTableOps(t, tableOpsSeed(seed, 100+int(seed)*4))
	}
}
