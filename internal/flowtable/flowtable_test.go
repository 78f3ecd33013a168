package flowtable

import (
	"math/rand"
	"reflect"
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
	m := Match{
		HostTag: U16(3),
		SubTag:  U8(9),
		InPort:  IntPtr(2),
		Src:     PrefixPtr(Prefix{Addr: 0x0A010100, Len: 24}),
		Proto:   U8(6),
		DstPort: U16(80),
	}
	if !m.Matches(pkt) {
		t.Fatal("fully specified match should match")
	}
	for name, bad := range map[string]Match{
		"host":    {HostTag: U16(4)},
		"sub":     {SubTag: U8(1)},
		"inport":  {InPort: IntPtr(9)},
		"src":     {Src: PrefixPtr(Prefix{Addr: 0x0B000000, Len: 8})},
		"dst":     {Dst: PrefixPtr(Prefix{Addr: 0x0A000000, Len: 8})},
		"proto":   {Proto: U8(17)},
		"srcport": {SrcPort: U16(99)},
		"dstport": {DstPort: U16(443)},
	} {
		if bad.Matches(pkt) {
			t.Errorf("%s mismatch should not match", name)
		}
	}
}

func TestMatchSubsumes(t *testing.T) {
	wide := Match{Src: PrefixPtr(Prefix{Addr: 0x0A000000, Len: 8})}
	narrow := Match{Src: PrefixPtr(Prefix{Addr: 0x0A010100, Len: 24}), Proto: U8(6)}
	if !wide.Subsumes(narrow) {
		t.Error("/8 should subsume /24+proto")
	}
	if narrow.Subsumes(wide) {
		t.Error("narrow should not subsume wide")
	}
	if !(Match{}).Subsumes(narrow) {
		t.Error("wildcard should subsume everything")
	}
}

// TestTypedEquality pins Match/Rule/BatchOp equality — what decides
// whether a re-optimization leaves a table alone — on the cases a looser
// comparison gets wrong, and against reflect.DeepEqual on every pair.
func TestTypedEquality(t *testing.T) {
	base := BatchOp{Rule: Rule{
		Name: "cls-7", Priority: 200,
		Match: Match{HostTag: U16(HostTagEmpty), Src: PrefixPtr(Prefix{Addr: 0x0A007000, Len: 21})},
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
		// Same values behind fresh pointers and a fresh action slice.
		"copy": with(func(op *BatchOp) {
			op.Rule.Match = Match{HostTag: U16(HostTagEmpty), Src: PrefixPtr(Prefix{Addr: 0x0A007000, Len: 21})}
		}),
		// Table III: "host tag must be empty" is not "any host tag".
		"wildcard host tag": with(func(op *BatchOp) { op.Rule.Match.HostTag = nil }),
		// A pointer to the zero value is a set field, not a wildcard.
		"sub tag zero":    with(func(op *BatchOp) { op.Rule.Match.SubTag = U8(0) }),
		"in-port zero":    with(func(op *BatchOp) { op.Rule.Match.InPort = IntPtr(0) }),
		"proto zero":      with(func(op *BatchOp) { op.Rule.Match.Proto = U8(0) }),
		"src port zero":   with(func(op *BatchOp) { op.Rule.Match.SrcPort = U16(0) }),
		"dst port zero":   with(func(op *BatchOp) { op.Rule.Match.DstPort = U16(0) }),
		"dst zero prefix": with(func(op *BatchOp) { op.Rule.Match.Dst = PrefixPtr(Prefix{}) }),
		"other prefix len": with(func(op *BatchOp) {
			op.Rule.Match.Src = PrefixPtr(Prefix{Addr: 0x0A007000, Len: 22})
		}),
		// Actions execute in order.
		"actions swapped": with(func(op *BatchOp) {
			op.Rule.Actions[1], op.Rule.Actions[2] = op.Rule.Actions[2], op.Rule.Actions[1]
		}),
		"action dropped":  with(func(op *BatchOp) { op.Rule.Actions = op.Rule.Actions[:2] }),
		"other tag":       with(func(op *BatchOp) { op.Rule.Actions[0].Tag = 2 }),
		"other name":      with(func(op *BatchOp) { op.Rule.Name = "cls-8" }),
		"other priority":  with(func(op *BatchOp) { op.Rule.Priority = 300 }),
		"skip if present": with(func(op *BatchOp) { op.SkipIfPresent = true }),
		"with removal":    with(func(op *BatchOp) { op.Remove = "cls-7" }),
		"removal only":    {Remove: "cls-7"},
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
			if got := a.Equal(b); got != want {
				t.Errorf("BatchOp %q.Equal(%q) = %v, want %v", an, bn, got, want)
			}
			if got := a.Rule.Equal(b.Rule); got != reflect.DeepEqual(a.Rule, b.Rule) {
				t.Errorf("Rule %q.Equal(%q) = %v", an, bn, got)
			}
			if got := a.Rule.Match.Equal(b.Rule.Match); got != reflect.DeepEqual(a.Rule.Match, b.Rule.Match) {
				t.Errorf("Match %q.Equal(%q) = %v", an, bn, got)
			}
		}
	}

	// Batches compare step by step, in order, and by length.
	x, y := ops["base"], ops["removal only"]
	for _, tc := range []struct {
		a, b []BatchOp
		want bool
	}{
		{nil, nil, true},
		{nil, []BatchOp{}, true},
		{[]BatchOp{y, x}, []BatchOp{y, ops["copy"]}, true},
		{[]BatchOp{y, x}, []BatchOp{x, y}, false},
		{[]BatchOp{y, x}, []BatchOp{y}, false},
		{[]BatchOp{y, x}, []BatchOp{y, ops["wildcard host tag"]}, false},
	} {
		if got := BatchEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("BatchEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTableInstallOrdering(t *testing.T) {
	tbl := NewTable()
	low := Rule{Name: "low", Priority: 1, Actions: []Action{{Type: ActForward, Port: 1}}}
	high := Rule{
		Name:     "high",
		Priority: 10,
		Match:    Match{Proto: U8(6)},
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
		Match:   Match{HostTag: U16(5)},
		Actions: []Action{{Type: ActForward, Port: applePort}},
	}); err != nil {
		t.Fatal(err)
	}
	// Row 2: classification, local processing — tag sub-class, forward to
	// the APPLE host.
	if err := apple.Install(Rule{
		Name: "classify-local", Priority: 200,
		Match:   Match{HostTag: U16(HostTagEmpty), Src: &subClass, Proto: U8(6)},
		Actions: []Action{{Type: ActSetSubTag, Tag: 7}, {Type: ActForward, Port: applePort}},
	}); err != nil {
		t.Fatal(err)
	}
	// Row 3: classification, remote processing — tag sub-class + host,
	// continue to the next table.
	if err := apple.Install(Rule{
		Name: "classify-remote", Priority: 100,
		Match:   Match{HostTag: U16(HostTagEmpty), Src: &subClass},
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
		Match:   Match{HostTag: U16(HostTagEmpty), Src: &sub},
		Actions: []Action{{Type: ActSetSubTag, Tag: 3}, {Type: ActSetHostTag, Tag: 2}, {Type: ActGotoTable, Table: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Install(Rule{
		Name: "local", Priority: 20,
		Match:   Match{HostTag: U16(4)},
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
			Match:   Match{Dst: PrefixPtr(Prefix{Addr: ip(t, dst), Len: 8})},
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
		Match:   Match{Proto: U8(6)},
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
