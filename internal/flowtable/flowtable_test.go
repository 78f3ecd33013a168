package flowtable

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/headerspace"
)

func ip(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := headerspace.ParseIPv4(s)
	if err != nil {
		t.Fatalf("ParseIPv4(%q): %v", s, err)
	}
	return v
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: 0x0A010100, Len: 24} // 10.1.1.0/24
	tests := []struct {
		v    uint32
		want bool
	}{
		{0x0A010101, true},
		{0x0A0101FF, true},
		{0x0A010201, false},
	}
	for _, tc := range tests {
		if got := p.Contains(tc.v); got != tc.want {
			t.Errorf("Contains(%x) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if !(Prefix{Len: 0}).Contains(12345) {
		t.Error("zero-length prefix should match anything")
	}
	exact := Prefix{Addr: 7, Len: 32}
	if !exact.Contains(7) || exact.Contains(8) {
		t.Error("exact prefix wrong")
	}
	if (Prefix{Addr: 0x0A010100, Len: 24}).String() != "10.1.1.0/24" {
		t.Error("prefix String wrong")
	}
}

func TestMatchWildcardAndFields(t *testing.T) {
	pkt := Packet{
		Hdr:     headerspace.Header{SrcIP: 0x0A010105, DstIP: 0x0B000001, Proto: 6, SrcPort: 1234, DstPort: 80},
		HostTag: 3,
		SubTag:  9,
		InPort:  2,
	}
	if !(Match{}).Matches(pkt) {
		t.Fatal("all-wildcard match should match")
	}
	m := Match{}.WithHostTag(3).
		WithSubTag(9).
		WithInPort(2).
		WithSrc(Prefix{Addr: 0x0A010100, Len: 24}).
		WithProto(6).
		WithDstPort(80)
	if !m.Matches(pkt) {
		t.Fatal("fully specified match should match")
	}
	for name, bad := range map[string]Match{
		"host":    Match{}.WithHostTag(4),
		"sub":     Match{}.WithSubTag(1),
		"inport":  Match{}.WithInPort(9),
		"src":     Match{}.WithSrc(Prefix{Addr: 0x0B000000, Len: 8}),
		"dst":     Match{}.WithDst(Prefix{Addr: 0x0A000000, Len: 8}),
		"proto":   Match{}.WithProto(17),
		"srcport": Match{}.WithSrcPort(99),
		"dstport": Match{}.WithDstPort(443),
	} {
		if bad.Matches(pkt) {
			t.Errorf("%s mismatch should not match", name)
		}
	}
}

func TestMatchSubsumes(t *testing.T) {
	wide := Match{}.WithSrc(Prefix{Addr: 0x0A000000, Len: 8})
	narrow := Match{}.WithSrc(Prefix{Addr: 0x0A010100, Len: 24}).WithProto(6)
	if !wide.Subsumes(narrow) {
		t.Error("/8 should subsume /24+proto")
	}
	if narrow.Subsumes(wide) {
		t.Error("narrow should not subsume wide")
	}
	if !(Match{}).Subsumes(narrow) {
		t.Error("wildcard should subsume everything")
	}
	// Same base address: only the shorter prefix is the more general.
	wide24 := Match{}.WithSrc(Prefix{Addr: 0x0A010100, Len: 24})
	narrow25 := Match{}.WithSrc(Prefix{Addr: 0x0A010100, Len: 25})
	if !wide24.Subsumes(narrow25) || narrow25.Subsumes(wide24) {
		t.Error("/24 should subsume the /25 on its base address, and not the reverse")
	}
}

// TestMatchZeroValuesAreConcrete pins that a field set to its zero value
// is a concrete match, not the wildcard its zero-valued storage looks
// like: Table III's "host tag must be empty" row, a rule on in-port 0,
// and a set /0 source each differ from the all-wildcard match in Equal,
// subsume nothing it does not, and keep their presence bit. The /0
// source still matches every address, so it compiles to the wildcard's
// shape. An Equal or Subsumes that compared values alone, or a setter
// that skipped the bit for a zero value, fails here.
func TestMatchZeroValuesAreConcrete(t *testing.T) {
	var wild Match
	for _, c := range []struct {
		name  string
		m     Match
		f     Field
		shape shapeKey
		miss  Packet // a packet the wildcard matches and m does not
	}{
		{"host tag empty", Match{}.WithHostTag(HostTagEmpty), FieldHostTag,
			shapeKey{mask: FieldHostTag}, Packet{HostTag: 5}},
		{"in-port 0", Match{}.WithInPort(0), FieldInPort,
			shapeKey{mask: FieldInPort}, Packet{InPort: 1}},
		{"src /0", Match{}.WithSrc(Prefix{}), FieldSrc, shapeKey{}, Packet{}},
	} {
		if !c.m.Has(c.f) || c.m.Has(^c.f) || wild.Has(c.f) {
			t.Errorf("%s: presence bits wrong", c.name)
		}
		if c.m.Equal(wild) || wild.Equal(c.m) || c.m == wild {
			t.Errorf("%s: equal to the wildcard", c.name)
		}
		if !c.m.Equal(c.m) {
			t.Errorf("%s: not equal to itself", c.name)
		}
		// The wildcard is more general; the set field is not.
		if !wild.Subsumes(c.m) || c.m.Subsumes(wild) {
			t.Errorf("%s: Subsumes(wildcard) = %v, wildcard.Subsumes = %v; want false, true",
				c.name, c.m.Subsumes(wild), wild.Subsumes(c.m))
		}
		if got, ok := intersectMatch(wild, c.m); !ok || got != c.m {
			t.Errorf("%s: wildcard ∧ m = %+v, %v", c.name, got, ok)
		}
		if got := shapeOf(c.m); got != c.shape {
			t.Errorf("%s: shape %+v, want %+v", c.name, got, c.shape)
		}
		if !c.m.Matches(Packet{}) {
			t.Errorf("%s: does not match the zero packet", c.name)
		}
		if c.shape.mask != 0 && c.m.Matches(c.miss) {
			t.Errorf("%s: matches %+v", c.name, c.miss)
		}
	}
	// A set zero value conflicts with every other value of its field, in
	// either order of the conjunction.
	for _, pair := range [][2]Match{
		{Match{}.WithHostTag(HostTagEmpty), Match{}.WithHostTag(5)},
		{Match{}.WithInPort(0), Match{}.WithInPort(1)},
	} {
		for _, ab := range [][2]Match{pair, {pair[1], pair[0]}} {
			if m, ok := intersectMatch(ab[0], ab[1]); ok {
				t.Errorf("%+v ∧ %+v = %+v, want disjoint", ab[0], ab[1], m)
			}
		}
	}
	if v, ok := (Match{}.WithHostTag(HostTagEmpty)).HostTag(); !ok || v != HostTagEmpty {
		t.Errorf("HostTag() = %d, %v", v, ok)
	}
	if _, ok := wild.HostTag(); ok {
		t.Error("the wildcard reports a host tag")
	}
}

// TestMatchClampsPrefixLength pins how a Match stores a prefix: its
// address and its length clamped to 0..32, the bits Prefix.Contains
// compares. A length below 0 or above 32 reads back as 0 or 32, two
// matches are Equal exactly when their clamped prefixes are, and Matches
// and Subsumes agree with Contains on the prefixes as given. The in-port
// is not packed: any int reads back as set.
func TestMatchClampsPrefixLength(t *testing.T) {
	clamp := func(l int) int { return min(max(l, 0), 32) }
	lens := []int{-1 << 40, -7, -1, 0, 1, 8, 24, 31, 32, 33, 40, 1 << 40}
	addrs := []uint32{0x0A010203, 0x0A0102FF, 0x0A01FF00, 0x8A010203}
	fields := []struct {
		name string
		with func(Prefix) Match
		get  func(Match) (Prefix, bool)
		pkt  func(uint32) Packet
	}{
		{"Src", Match{}.WithSrc, Match.Src, func(v uint32) (p Packet) { p.Hdr.SrcIP = v; return p }},
		{"Dst", Match{}.WithDst, Match.Dst, func(v uint32) (p Packet) { p.Hdr.DstIP = v; return p }},
	}
	for _, f := range fields {
		for _, l := range lens {
			p := Prefix{Addr: addrs[0], Len: l}
			if got, ok := f.get(f.with(p)); !ok || got != (Prefix{Addr: p.Addr, Len: clamp(l)}) {
				t.Errorf("%s(%v) reads back as %v, %v; want length %d", f.name, p, got, ok, clamp(l))
			}
		}
		for _, li := range lens {
			for _, lj := range lens {
				for _, a := range addrs {
					pi, pj := Prefix{Addr: addrs[0], Len: li}, Prefix{Addr: a, Len: lj}
					mi, mj := f.with(pi), f.with(pj)
					wantEq := a == addrs[0] && clamp(li) == clamp(lj)
					if mi.Equal(mj) != wantEq {
						t.Errorf("%s: %v Equal %v = %v, want %v", f.name, pi, pj, mi.Equal(mj), wantEq)
					}
					wantSub := clamp(lj) >= clamp(li) && pi.Contains(a)
					if mi.Subsumes(mj) != wantSub {
						t.Errorf("%s: %v Subsumes %v = %v, want %v", f.name, pi, pj, mi.Subsumes(mj), wantSub)
					}
				}
			}
			for _, v := range addrs {
				p := Prefix{Addr: addrs[0], Len: li}
				if got := f.with(p).Matches(f.pkt(v)); got != p.Contains(v) {
					t.Errorf("%s: %v Matches %#x = %v, Contains %v", f.name, p, v, got, !got)
				}
			}
		}
	}
	if v, ok := (Match{}.WithInPort(1 << 40)).InPort(); !ok || v != 1<<40 {
		t.Errorf("WithInPort(1<<40) reads back as %d, %v", v, ok)
	}
}

// TestTypedEquality pins Match and Rule equality — what the controller's
// layout and Table III audits compare installed rules with — on the cases
// a looser comparison gets wrong, and against reflect.DeepEqual on every
// pair.
func TestTypedEquality(t *testing.T) {
	base := BatchOp{Rule: Rule{
		Name: "cls-7", Priority: 200,
		Match: Match{}.WithHostTag(HostTagEmpty).WithSrc(Prefix{Addr: 0x0A007000, Len: 21}),
		Actions: []Action{
			{Type: ActSetSubTag, Tag: 1},
			{Type: ActSetHostTag, Tag: 9},
			{Type: ActGotoTable, Table: 1},
		},
	}}
	with := func(edit func(*BatchOp)) BatchOp {
		op := base
		op.Rule.Actions = append([]Action(nil), base.Rule.Actions...)
		edit(&op)
		return op
	}
	ops := map[string]BatchOp{
		"base": base,
		// The same match built again, and a fresh action slice.
		"copy": with(func(op *BatchOp) {
			op.Rule.Match = Match{}.WithHostTag(HostTagEmpty).WithSrc(Prefix{Addr: 0x0A007000, Len: 21})
		}),
		// Table III: "host tag must be empty" is not "any host tag".
		"wildcard host tag": with(func(op *BatchOp) {
			op.Rule.Match = Match{}.WithSrc(Prefix{Addr: 0x0A007000, Len: 21})
		}),
		// A field set to its zero value is concrete, not a wildcard.
		"sub tag zero":    with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithSubTag(0) }),
		"in-port zero":    with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithInPort(0) }),
		"proto zero":      with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithProto(0) }),
		"src port zero":   with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithSrcPort(0) }),
		"dst port zero":   with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithDstPort(0) }),
		"dst zero prefix": with(func(op *BatchOp) { op.Rule.Match = op.Rule.Match.WithDst(Prefix{}) }),
		"other prefix len": with(func(op *BatchOp) {
			op.Rule.Match = op.Rule.Match.WithSrc(Prefix{Addr: 0x0A007000, Len: 22})
		}),
		// Actions execute in order.
		"actions swapped": with(func(op *BatchOp) {
			op.Rule.Actions[1], op.Rule.Actions[2] = op.Rule.Actions[2], op.Rule.Actions[1]
		}),
		"action dropped": with(func(op *BatchOp) { op.Rule.Actions = op.Rule.Actions[:2] }),
		"other tag":      with(func(op *BatchOp) { op.Rule.Actions[0].Tag = 2 }),
		"other name":     with(func(op *BatchOp) { op.Rule.Name = "cls-8" }),
		"other priority": with(func(op *BatchOp) { op.Rule.Priority = 300 }),
		"with removal":   with(func(op *BatchOp) { op.Remove = "cls-7" }),
		"removal only":   {Remove: "cls-7"},
	}
	for an, a := range ops {
		for bn, b := range ops {
			want := reflect.DeepEqual(a, b)
			if (an == "base" && bn == "copy") || (an == "copy" && bn == "base") {
				if !want {
					t.Fatalf("fixture: %q and %q should be deeply equal", an, bn)
				}
			} else if want != (an == bn) {
				t.Fatalf("fixture: %q and %q are not distinct", an, bn)
			}
			if got := a.Rule.Equal(b.Rule); got != reflect.DeepEqual(a.Rule, b.Rule) {
				t.Errorf("Rule %q.Equal(%q) = %v", an, bn, got)
			}
			if got := a.Rule.Match.Equal(b.Rule.Match); got != reflect.DeepEqual(a.Rule.Match, b.Rule.Match) {
				t.Errorf("Match %q.Equal(%q) = %v", an, bn, got)
			}
		}
	}
}

func TestTableInstallOrdering(t *testing.T) {
	tbl := NewTable()
	low := Rule{Name: "low", Priority: 1, Actions: []Action{{Type: ActForward, Port: 1}}}
	high := Rule{
		Name:     "high",
		Priority: 10,
		Match:    Match{}.WithProto(6),
		Actions:  []Action{{Type: ActForward, Port: 2}},
	}
	if err := tbl.Install(low); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(high); err != nil {
		t.Fatal(err)
	}
	pkt := Packet{Hdr: headerspace.Header{Proto: 6}}
	r, ok := tbl.Lookup(pkt)
	if !ok || r.Name != "high" {
		t.Fatalf("Lookup = %q, %v; want high", r.Name, ok)
	}
	pkt.Hdr.Proto = 17
	r, ok = tbl.Lookup(pkt)
	if !ok || r.Name != "low" {
		t.Fatalf("Lookup = %q, %v; want low", r.Name, ok)
	}
	if tbl.Size() != 2 {
		t.Fatalf("Size = %d", tbl.Size())
	}
}

func TestTableEqualPriorityKeepsInstallOrder(t *testing.T) {
	tbl := NewTable()
	for _, name := range []string{"first", "second"} {
		if err := tbl.Install(Rule{Name: name, Priority: 5, Actions: []Action{{Type: ActDrop}}}); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := tbl.Lookup(Packet{})
	if !ok || r.Name != "first" {
		t.Fatalf("tie broke to %q, want first", r.Name)
	}
}

func TestTableInstallValidation(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Install(Rule{Name: "empty"}); err == nil {
		t.Error("rule without actions should fail")
	}
	if err := tbl.Install(Rule{Name: "bad", Actions: []Action{{Type: ActionType(99)}}}); err == nil {
		t.Error("unknown action should fail")
	}
	if err := tbl.Install(Rule{Name: "subtag", Actions: []Action{{Type: ActSetSubTag, Tag: 100}}}); err == nil {
		t.Error("oversized sub tag should fail")
	}
	if err := tbl.Install(Rule{Name: "hosttag", Actions: []Action{{Type: ActSetHostTag, Tag: 0x1000}}}); err == nil {
		t.Error("oversized host tag should fail")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 3; i++ {
		if err := tbl.Install(Rule{Name: "x", Priority: i, Actions: []Action{{Type: ActDrop}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Install(Rule{Name: "keep", Actions: []Action{{Type: ActDrop}}}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Remove("x"); n != 3 {
		t.Fatalf("Remove = %d, want 3", n)
	}
	if tbl.Size() != 1 {
		t.Fatalf("Size = %d after remove", tbl.Size())
	}
	if n := tbl.Remove("x"); n != 0 {
		t.Fatalf("second Remove = %d", n)
	}
}

func TestRulesReturnsCopy(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Install(Rule{Name: "a", Actions: []Action{{Type: ActDrop}}}); err != nil {
		t.Fatal(err)
	}
	rs := tbl.Rules()
	rs[0].Name = "mutated"
	if tbl.Rules()[0].Name != "a" {
		t.Fatal("Rules leaked internal slice")
	}
}

// TestRulesReturnsPrivateActions: the action lists Rules returns are the
// caller's. Writing one — or appending to it — changes neither what Lookup
// answers nor what Rules reports next, not even for a second rule that was
// installed with the very same slice.
func TestRulesReturnsPrivateActions(t *testing.T) {
	tbl := NewTable()
	shared := []Action{{Type: ActSetHostTag, Tag: 7}, {Type: ActForward, Port: 3}}
	want := slices.Clone(shared)
	for i, name := range []string{"a", "b"} {
		r := Rule{Name: name, Priority: 10 - i, Match: Match{}.WithInPort(i), Actions: shared}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	got := tbl.Rules()
	got[0].Actions[0].Tag = 9
	got[0].Actions[1].Port = 4
	_ = append(got[0].Actions[:1], Action{Type: ActDrop})
	if !slices.Equal(got[1].Actions, want) {
		t.Fatalf("writing the first returned rule changed the second: %v", got[1].Actions)
	}
	for i, r := range tbl.Rules() {
		if !slices.Equal(r.Actions, want) {
			t.Fatalf("rule %d now reports actions %v, want %v", i, r.Actions, want)
		}
	}
	for port, name := range []string{"a", "b"} {
		hit, ok := tbl.Lookup(Packet{InPort: port})
		if !ok || hit.Name != name || !slices.Equal(hit.Actions, want) {
			t.Fatalf("Lookup on port %d = %+v, %v; want %s with %v", port, hit, ok, name, want)
		}
	}
}

// TestTableIIIPipeline builds the exact Table III layout from the paper
// and checks all four row semantics.
func TestTableIIIPipeline(t *testing.T) {
	pl, err := NewPipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	apple, err := pl.Table(0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := pl.Table(1)
	if err != nil {
		t.Fatal(err)
	}
	const applePort = 9
	subClass := Prefix{Addr: ip(t, "10.1.1.0"), Len: 24}
	// Row 1: host match — host ID 5 is local, forward to the APPLE host.
	if err := apple.Install(Rule{
		Name: "host-match", Priority: 300,
		Match:   Match{}.WithHostTag(5),
		Actions: []Action{{Type: ActForward, Port: applePort}},
	}); err != nil {
		t.Fatal(err)
	}
	// Row 2: classification, local processing — tag sub-class, forward to
	// the APPLE host.
	if err := apple.Install(Rule{
		Name: "classify-local", Priority: 200,
		Match:   Match{}.WithHostTag(HostTagEmpty).WithSrc(subClass).WithProto(6),
		Actions: []Action{{Type: ActSetSubTag, Tag: 7}, {Type: ActForward, Port: applePort}},
	}); err != nil {
		t.Fatal(err)
	}
	// Row 3: classification, remote processing — tag sub-class + host,
	// continue to the next table.
	if err := apple.Install(Rule{
		Name: "classify-remote", Priority: 100,
		Match:   Match{}.WithHostTag(HostTagEmpty).WithSrc(subClass),
		Actions: []Action{{Type: ActSetSubTag, Tag: 7}, {Type: ActSetHostTag, Tag: 6}, {Type: ActGotoTable, Table: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// Row 4: pass-by — everything else goes to the next table untouched.
	if err := apple.Install(Rule{
		Name: "pass-by", Priority: 0,
		Actions: []Action{{Type: ActGotoTable, Table: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// Next table: other applications' routing — forward to port 1.
	if err := next.Install(Rule{
		Name: "route", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	// Case 1: tagged for the local host.
	p := Packet{HostTag: 5}
	res, err := pl.Process(&p)
	if err != nil || res.Disposition != DispForward || res.Port != applePort {
		t.Fatalf("host-match: %+v, %v", res, err)
	}
	// Case 2: untagged TCP in the sub-class: classify, process locally.
	p = Packet{Hdr: headerspace.Header{SrcIP: ip(t, "10.1.1.9"), Proto: 6}}
	res, err = pl.Process(&p)
	if err != nil || res.Disposition != DispForward || res.Port != applePort {
		t.Fatalf("classify-local: %+v, %v", res, err)
	}
	if p.SubTag != 7 {
		t.Fatalf("sub tag = %d, want 7", p.SubTag)
	}
	// Case 3: untagged UDP in the sub-class: classify for host 6, route.
	p = Packet{Hdr: headerspace.Header{SrcIP: ip(t, "10.1.1.9"), Proto: 17}}
	res, err = pl.Process(&p)
	if err != nil || res.Disposition != DispForward || res.Port != 1 {
		t.Fatalf("classify-remote: %+v, %v", res, err)
	}
	if p.SubTag != 7 || p.HostTag != 6 {
		t.Fatalf("tags = sub %d host %d, want 7 and 6", p.SubTag, p.HostTag)
	}
	// Case 4: foreign traffic passes by with tags untouched.
	p = Packet{Hdr: headerspace.Header{SrcIP: ip(t, "99.0.0.1")}, HostTag: 8}
	res, err = pl.Process(&p)
	if err != nil || res.Disposition != DispForward || res.Port != 1 {
		t.Fatalf("pass-by: %+v, %v", res, err)
	}
	if p.HostTag != 8 {
		t.Fatal("pass-by must not modify tags")
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(0); err == nil {
		t.Error("empty pipeline should fail")
	}
	pl, err := NewPipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Table(5); err == nil {
		t.Error("out-of-range table should fail")
	}
	if _, err := pl.Process(nil); err == nil {
		t.Error("nil packet should fail")
	}
	// Backwards goto is rejected.
	t1, err := pl.Table(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Install(Rule{Name: "back", Actions: []Action{{Type: ActGotoTable, Table: 0}}}); err != nil {
		t.Fatal(err)
	}
	t0, err := pl.Table(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t0.Install(Rule{Name: "go", Actions: []Action{{Type: ActGotoTable, Table: 1}}}); err != nil {
		t.Fatal(err)
	}
	p := Packet{}
	if _, err := pl.Process(&p); err == nil {
		t.Error("backwards goto should error")
	}
}

func TestPipelineNoMatch(t *testing.T) {
	pl, err := NewPipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	p := Packet{}
	res, err := pl.Process(&p)
	if err != nil || res.Disposition != DispNoMatch {
		t.Fatalf("empty pipeline: %+v, %v", res, err)
	}
	if pl.NumTables() != 1 || pl.TotalSize() != 0 {
		t.Fatal("counters wrong")
	}
}

func TestDropAction(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Install(Rule{Name: "acl", Actions: []Action{{Type: ActDrop}}}); err != nil {
		t.Fatal(err)
	}
	pl := &Pipeline{tables: []*Table{tbl}}
	p := Packet{}
	res, err := pl.Process(&p)
	if err != nil || res.Disposition != DispDrop || res.Rule != "acl" {
		t.Fatalf("drop: %+v, %v", res, err)
	}
}

func TestSplitPortionsHalf(t *testing.T) {
	blocks, err := SplitPortions([]float64{0.5, 0.5}, 8)
	if err != nil {
		t.Fatalf("SplitPortions: %v", err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d sub-classes", len(blocks))
	}
	// 50/50 over a /24 needs exactly one /25 rule each.
	for i, b := range blocks {
		if len(b) != 1 || b[0].Len != 1 {
			t.Fatalf("sub-class %d blocks = %+v, want one /1 suffix block", i, b)
		}
	}
}

func TestSplitPortionsUneven(t *testing.T) {
	// 3/8 + 5/8: 3/8 = 1/4+1/8 (2 rules), 5/8 = 1/2+1/8 or similar.
	blocks, err := SplitPortions([]float64{0.375, 0.625}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks[0]) != 2 {
		t.Fatalf("0.375 should need 2 rules, got %+v", blocks[0])
	}
}

// TestSplitPortionsCoversExactly: quantized blocks tile the suffix space
// exactly, for random portion vectors.
func TestSplitPortionsCoversExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const bits = 8
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		portions := make([]float64, n)
		total := 0.0
		for i := range portions {
			portions[i] = rng.Float64()
			total += portions[i]
		}
		for i := range portions {
			portions[i] /= total
		}
		blocks, err := SplitPortions(portions, bits)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		covered := make([]int, 1<<bits)
		for _, bs := range blocks {
			for _, b := range bs {
				base := b.Value << uint(bits-b.Len)
				for v := base; v < base+1<<uint(bits-b.Len); v++ {
					covered[v]++
				}
			}
		}
		for v, c := range covered {
			if c != 1 {
				t.Fatalf("trial %d: suffix %d covered %d times", trial, v, c)
			}
		}
	}
}

func TestSplitPortionsValidation(t *testing.T) {
	if _, err := SplitPortions(nil, 8); err == nil {
		t.Error("no portions should fail")
	}
	if _, err := SplitPortions([]float64{1}, 0); err == nil {
		t.Error("bits 0 should fail")
	}
	if _, err := SplitPortions([]float64{0.2, 0.2}, 8); err == nil {
		t.Error("sum 0.4 should fail")
	}
	if _, err := SplitPortions([]float64{-0.5, 1.5}, 8); err == nil {
		t.Error("negative portion should fail")
	}
	if _, err := SplitPortions([]float64{0, 0}, 8); err == nil {
		t.Error("all-zero should fail")
	}
	// More positive portions than grid units.
	many := make([]float64, 5)
	for i := range many {
		many[i] = 0.2
	}
	if _, err := SplitPortions(many, 2); err == nil {
		t.Error("5 portions on 4 units should fail")
	}
}

func TestSplitPortionsPositiveFloor(t *testing.T) {
	// A tiny positive portion must still receive at least one unit.
	blocks, err := SplitPortions([]float64{0.999, 0.001}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks[1]) == 0 {
		t.Fatal("tiny positive portion got no blocks")
	}
}

func TestSuffixRules(t *testing.T) {
	base := Prefix{Addr: ip(t, "10.1.1.0"), Len: 24}
	// Suffix block over 8 bits: top half {Value:1, Len:1} → 10.1.1.128/25.
	rules, err := SuffixRules(base, []headerspace.PrefixBlock{{Value: 1, Len: 1}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].String() != "10.1.1.128/25" {
		t.Fatalf("SuffixRules = %v, want [10.1.1.128/25]", rules)
	}
	if _, err := SuffixRules(Prefix{Len: 30}, nil, 8); err == nil {
		t.Error("overflow past /32 should fail")
	}
	if _, err := SuffixRules(base, []headerspace.PrefixBlock{{Len: 9}}, 8); err == nil {
		t.Error("block longer than suffix should fail")
	}
}

func TestCrossProductSemantics(t *testing.T) {
	// Table 0: tag then goto; Table 1: route by dst.
	t0, t1 := NewTable(), NewTable()
	sub := Prefix{Addr: ip(t, "10.1.1.0"), Len: 24}
	if err := t0.Install(Rule{
		Name: "classify", Priority: 10,
		Match:   Match{}.WithHostTag(HostTagEmpty).WithSrc(sub),
		Actions: []Action{{Type: ActSetSubTag, Tag: 3}, {Type: ActSetHostTag, Tag: 2}, {Type: ActGotoTable, Table: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Install(Rule{
		Name: "local", Priority: 20,
		Match:   Match{}.WithHostTag(4),
		Actions: []Action{{Type: ActForward, Port: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Install(Rule{Name: "pass", Priority: 0, Actions: []Action{{Type: ActGotoTable, Table: 1}}}); err != nil {
		t.Fatal(err)
	}
	for i, dst := range []string{"20.0.0.0", "30.0.0.0"} {
		if err := t1.Install(Rule{
			Name: "route" + dst, Priority: 5,
			Match:   Match{}.WithDst(Prefix{Addr: ip(t, dst), Len: 8}),
			Actions: []Action{{Type: ActForward, Port: i + 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A default route makes table 1 total, which is what makes the
	// cross-product exactly equivalent (a table-1 miss after table-0 tag
	// writes is not expressible in one table).
	if err := t1.Install(Rule{
		Name: "default", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 99}},
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := CrossProduct(t0, t1)
	if err != nil {
		t.Fatalf("CrossProduct: %v", err)
	}
	// The merged table must grow beyond the pipelined total for shared
	// classification rules (2 goto rules × 2 routes + 1 terminal = 5 > 2+3
	// would be equal; the point is ≥, and semantics must agree).
	if merged.Size() < 4 {
		t.Fatalf("merged size = %d, suspiciously small", merged.Size())
	}
	pipe := &Pipeline{tables: []*Table{t0, t1}}
	single := &Pipeline{tables: []*Table{merged}}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		hdr := headerspace.Header{SrcIP: rng.Uint32(), DstIP: rng.Uint32()}
		if rng.Intn(2) == 0 {
			hdr.SrcIP = ip(t, "10.1.1.0") | uint32(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			hdr.DstIP = ip(t, "20.0.0.0") | uint32(rng.Intn(1<<20))
		}
		var host uint16
		if rng.Intn(3) == 0 {
			host = 4
		}
		p1 := Packet{Hdr: hdr, HostTag: host}
		p2 := p1
		r1, err := pipe.Process(&p1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := single.Process(&p2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Disposition != r2.Disposition || r1.Port != r2.Port {
			t.Fatalf("iter %d: pipeline %+v != cross-product %+v (pkt %+v)", i, r1, r2, p1)
		}
		if p1.HostTag != p2.HostTag || p1.SubTag != p2.SubTag {
			t.Fatalf("iter %d: tag rewrites differ: %+v vs %+v", i, p1, p2)
		}
	}
}

func TestCrossProductNil(t *testing.T) {
	if _, err := CrossProduct(nil, NewTable()); err == nil {
		t.Fatal("nil table should fail")
	}
}

func TestActionAndDispositionStrings(t *testing.T) {
	for _, a := range []ActionType{ActForward, ActSetHostTag, ActSetSubTag, ActGotoTable, ActDrop} {
		if a.String() == "" {
			t.Errorf("action %d has empty name", a)
		}
	}
	if ActionType(42).String() == "" || Disposition(42).String() == "" {
		t.Error("unknown enums should render")
	}
	for _, d := range []Disposition{DispForward, DispDrop, DispNoMatch} {
		if d.String() == "" {
			t.Errorf("disposition %d has empty name", d)
		}
	}
}

func TestTableHas(t *testing.T) {
	tbl := NewTable()
	if tbl.Has("x") {
		t.Fatal("empty table should not have x")
	}
	if err := tbl.Install(Rule{Name: "x", Actions: []Action{{Type: ActDrop}}}); err != nil {
		t.Fatal(err)
	}
	if !tbl.Has("x") || tbl.Has("y") {
		t.Fatal("Has wrong")
	}
	tbl.Remove("x")
	if tbl.Has("x") {
		t.Fatal("Has after Remove wrong")
	}
}

func TestShadowed(t *testing.T) {
	tbl := NewTable()
	wide := Rule{Name: "wide", Priority: 10, Actions: []Action{{Type: ActDrop}}}
	narrow := Rule{
		Name: "narrow", Priority: 5,
		Match:   Match{}.WithProto(6),
		Actions: []Action{{Type: ActForward, Port: 1}},
	}
	if err := tbl.Install(wide); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(narrow); err != nil {
		t.Fatal(err)
	}
	sh := tbl.Shadowed()
	if len(sh) != 1 || sh[0] != "narrow" {
		t.Fatalf("Shadowed = %v, want [narrow]", sh)
	}
	// Reversed priorities: nothing shadowed (the narrow rule matches
	// first; the wide rule still catches everything else).
	tbl2 := NewTable()
	narrow.Priority, wide.Priority = 10, 5
	if err := tbl2.Install(narrow); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Install(wide); err != nil {
		t.Fatal(err)
	}
	if sh := tbl2.Shadowed(); len(sh) != 0 {
		t.Fatalf("Shadowed = %v, want none", sh)
	}
}

func TestBoundedTable(t *testing.T) {
	if _, err := NewBoundedTable(0); err == nil {
		t.Fatal("zero capacity should fail")
	}
	tbl, err := NewBoundedTable(2)
	if err != nil {
		t.Fatal(err)
	}
	drop := []Action{{Type: ActDrop}}
	for i := 0; i < 2; i++ {
		if err := tbl.Install(Rule{Name: "r", Priority: i, Actions: drop}); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	err = tbl.Install(Rule{Name: "overflow", Actions: drop})
	if !errorsIs(err, ErrTCAMFull) {
		t.Fatalf("err = %v, want ErrTCAMFull", err)
	}
	// Removing frees capacity.
	tbl.Remove("r")
	if err := tbl.Install(Rule{Name: "again", Actions: drop}); err != nil {
		t.Fatalf("install after remove: %v", err)
	}
}

// errorsIs avoids importing errors twice in this long test file.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
