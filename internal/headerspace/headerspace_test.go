package headerspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCIDR(t *testing.T, s *Space, f Field, cidr string) Predicate {
	t.Helper()
	p, err := s.CIDR(f, cidr)
	if err != nil {
		t.Fatalf("CIDR(%q): %v", cidr, err)
	}
	return p
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := ParseIPv4(s)
	if err != nil {
		t.Fatalf("ParseIPv4(%q): %v", s, err)
	}
	return v
}

func TestParseIPv4(t *testing.T) {
	tests := []struct {
		in   string
		want uint32
		ok   bool
	}{
		{"10.1.1.0", 0x0A010100, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"0.0.0.0", 0, true},
		{"1.2.3", 0, false},
		{"1.2.3.256", 0, false},
		{"a.b.c.d", 0, false},
	}
	for _, tc := range tests {
		got, err := ParseIPv4(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseIPv4(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseIPv4(%q) = %x, want %x", tc.in, got, tc.want)
		}
	}
}

func TestFormatIPv4RoundTrip(t *testing.T) {
	prop := func(v uint32) bool {
		got, err := ParseIPv4(FormatIPv4(v))
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseCIDR(t *testing.T) {
	addr, plen, err := ParseCIDR("10.1.1.0/24")
	if err != nil || addr != 0x0A010100 || plen != 24 {
		t.Fatalf("ParseCIDR = %x/%d, %v", addr, plen, err)
	}
	for _, bad := range []string{"10.1.1.0", "10.1.1.0/33", "10.1.1.0/x", "bad/8"} {
		if _, _, err := ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) should fail", bad)
		}
	}
}

func TestPrefixMatching(t *testing.T) {
	s := NewSpace()
	p := mustCIDR(t, s, FieldSrcIP, "10.1.1.0/24")
	if !p.Matches(Header{SrcIP: mustIP(t, "10.1.1.200")}) {
		t.Error("in-prefix header should match")
	}
	if p.Matches(Header{SrcIP: mustIP(t, "10.1.2.1")}) {
		t.Error("out-of-prefix header should not match")
	}
	// /24 covers 2^8 of 2^32 of the srcIP dimension.
	if got, want := p.Fraction(), 1.0/(1<<24); got != want {
		t.Errorf("Fraction = %v, want %v", got, want)
	}
}

func TestPrefixSubsetting(t *testing.T) {
	s := NewSpace()
	p24 := mustCIDR(t, s, FieldSrcIP, "10.1.1.0/24")
	p25 := mustCIDR(t, s, FieldSrcIP, "10.1.1.128/25")
	if !p24.Covers(p25) {
		t.Error("/24 should cover /25")
	}
	if p25.Covers(p24) {
		t.Error("/25 should not cover /24")
	}
	// The /25 split of a /24 is exactly half of it (the paper's sub-class
	// example in §V-A).
	if got := p25.Fraction() / p24.Fraction(); got != 0.5 {
		t.Errorf("sub-class fraction = %v, want 0.5", got)
	}
	other := mustCIDR(t, s, FieldSrcIP, "10.1.1.0/25")
	if p25.Overlaps(other) {
		t.Error("the two /25 halves should be disjoint")
	}
	if !p25.Or(other).Equal(p24) {
		t.Error("the two /25 halves should union to the /24")
	}
}

func TestExact(t *testing.T) {
	s := NewSpace()
	p, err := s.Exact(FieldProto, ProtoTCP)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if !p.Matches(Header{Proto: ProtoTCP}) || p.Matches(Header{Proto: ProtoUDP}) {
		t.Error("proto exact match wrong")
	}
	if _, err := s.Exact(FieldProto, 300); err == nil {
		t.Error("proto value 300 should be rejected")
	}
}

func TestPrefixValidation(t *testing.T) {
	s := NewSpace()
	if _, err := s.Prefix(FieldSrcIP, 0, 33); err == nil {
		t.Error("plen 33 should fail")
	}
	if _, err := s.Prefix(FieldSrcIP, 0, -1); err == nil {
		t.Error("negative plen should fail")
	}
	if _, err := s.Prefix(Field(0), 0, 1); err == nil {
		t.Error("unknown field should fail")
	}
	p, err := s.Prefix(FieldDstPort, 0, 0)
	if err != nil || !p.IsTrue() {
		t.Errorf("zero-length prefix should be True, got %v, %v", p.IsTrue(), err)
	}
}

func TestRange(t *testing.T) {
	s := NewSpace()
	p, err := s.Range(FieldDstPort, 1000, 1999)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	tests := []struct {
		port uint16
		want bool
	}{
		{999, false}, {1000, true}, {1500, true}, {1999, true}, {2000, false},
	}
	for _, tc := range tests {
		if got := p.Matches(Header{DstPort: tc.port}); got != tc.want {
			t.Errorf("port %d: match = %v, want %v", tc.port, got, tc.want)
		}
	}
	if got, want := p.Fraction(), 1000.0/65536; got != want {
		t.Errorf("Fraction = %v, want %v", got, want)
	}
	if _, err := s.Range(FieldDstPort, 5, 2); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := s.Range(FieldProto, 0, 300); err == nil {
		t.Error("range beyond field width should fail")
	}
}

func TestRangeToPrefixes(t *testing.T) {
	tests := []struct {
		lo, hi uint32
		w      int
		want   int // expected block count
	}{
		{0, 65535, 16, 1},
		{0, 32767, 16, 1},
		{1, 1, 16, 1},
		{0, 2, 16, 2}, // [0,1] + [2,2]
		{1, 6, 8, 4},  // 1, 2-3, 4-5, 6
		{0, 4294967295, 32, 1},
	}
	for _, tc := range tests {
		got := RangeToPrefixes(tc.lo, tc.hi, tc.w)
		if len(got) != tc.want {
			t.Errorf("RangeToPrefixes(%d,%d,%d) = %d blocks %v, want %d",
				tc.lo, tc.hi, tc.w, len(got), got, tc.want)
		}
	}
}

// TestRangeToPrefixesExactCover: the blocks exactly tile the range, with no
// gaps, overlaps, or spill, for random ranges.
func TestRangeToPrefixesExactCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w = 12 // small enough to verify by direct enumeration
	for trial := 0; trial < 100; trial++ {
		lo := uint32(rng.Intn(1 << w))
		hi := lo + uint32(rng.Intn(1<<w-int(lo)))
		blocks := RangeToPrefixes(lo, hi, w)
		covered := make([]int, 1<<w)
		for _, b := range blocks {
			base := b.Value << uint(w-b.Len)
			size := uint32(1) << uint(w-b.Len)
			for v := base; v < base+size; v++ {
				covered[v]++
			}
		}
		for v := uint32(0); v < 1<<w; v++ {
			want := 0
			if v >= lo && v <= hi {
				want = 1
			}
			if covered[v] != want {
				t.Fatalf("trial %d [%d,%d]: value %d covered %d times, want %d",
					trial, lo, hi, v, covered[v], want)
			}
		}
	}
}

func TestCombinators(t *testing.T) {
	s := NewSpace()
	a := mustCIDR(t, s, FieldSrcIP, "10.0.0.0/8")
	b := mustCIDR(t, s, FieldDstIP, "192.168.0.0/16")
	both := a.And(b)
	h := Header{SrcIP: mustIP(t, "10.5.5.5"), DstIP: mustIP(t, "192.168.1.1")}
	if !both.Matches(h) {
		t.Error("conjunction should match")
	}
	h.DstIP = mustIP(t, "172.16.0.1")
	if both.Matches(h) {
		t.Error("conjunction should fail on dst mismatch")
	}
	if !a.Or(b).Matches(h) {
		t.Error("disjunction should match via srcIP")
	}
	if a.Diff(a).IsFalse() != true {
		t.Error("a \\ a should be empty")
	}
}

func TestExample(t *testing.T) {
	s := NewSpace()
	p := mustCIDR(t, s, FieldSrcIP, "10.1.0.0/16")
	h, err := p.Example()
	if err != nil {
		t.Fatalf("Example: %v", err)
	}
	if !p.Matches(h) {
		t.Fatalf("Example() returned non-matching header %+v", h)
	}
	if _, err := s.False().Example(); err == nil {
		t.Fatal("Example of empty predicate should fail")
	}
}

func TestAtomsSimple(t *testing.T) {
	s := NewSpace()
	a := mustCIDR(t, s, FieldSrcIP, "10.0.0.0/8")
	b := mustCIDR(t, s, FieldSrcIP, "10.1.0.0/16")
	atoms, err := s.Atoms([]Predicate{a, b})
	if err != nil {
		t.Fatalf("Atoms: %v", err)
	}
	// b ⊂ a, so atoms are: b, a\b, ¬a — three classes.
	if len(atoms) != 3 {
		t.Fatalf("got %d atoms, want 3", len(atoms))
	}
	// Residual (matches neither) must be last per the documented order.
	last := atoms[len(atoms)-1]
	if last.Overlaps(a) || last.Overlaps(b) {
		t.Error("last atom should be the residual")
	}
}

func TestAtomsOfDisjointPredicates(t *testing.T) {
	s := NewSpace()
	var preds []Predicate
	for i := 0; i < 4; i++ {
		preds = append(preds, mustCIDR(t, s, FieldSrcIP, FormatIPv4(uint32(i)<<24)+"/8"))
	}
	atoms, err := s.Atoms(preds)
	if err != nil {
		t.Fatalf("Atoms: %v", err)
	}
	if len(atoms) != 5 { // 4 prefixes + residual
		t.Fatalf("got %d atoms, want 5", len(atoms))
	}
}

func TestAtomsRejectForeignSpace(t *testing.T) {
	s1, s2 := NewSpace(), NewSpace()
	p := s2.True()
	if _, err := s1.Atoms([]Predicate{p}); err == nil {
		t.Fatal("foreign-space predicate should be rejected")
	}
}

func TestClassifier(t *testing.T) {
	s := NewSpace()
	web, err := s.Exact(FieldDstPort, 80)
	if err != nil {
		t.Fatal(err)
	}
	internal := mustCIDR(t, s, FieldSrcIP, "10.0.0.0/8")
	c, err := NewClassifier(s, []Predicate{web, internal})
	if err != nil {
		t.Fatalf("NewClassifier: %v", err)
	}
	if err := c.CheckPartition(); err != nil {
		t.Fatalf("CheckPartition: %v", err)
	}
	if c.NumClasses() != 4 { // web∩int, web\int, int\web, neither
		t.Fatalf("NumClasses = %d, want 4", c.NumClasses())
	}
	// Headers distinguished by some predicate get different classes;
	// headers not distinguished get the same class.
	h1 := Header{SrcIP: mustIP(t, "10.1.1.1"), DstPort: 80}
	h2 := Header{SrcIP: mustIP(t, "10.200.0.1"), DstPort: 80}
	h3 := Header{SrcIP: mustIP(t, "11.1.1.1"), DstPort: 80}
	if c.Classify(h1) != c.Classify(h2) {
		t.Error("equivalent headers got different classes")
	}
	if c.Classify(h1) == c.Classify(h3) {
		t.Error("distinguishable headers got the same class")
	}
	m, err := c.Membership(c.Classify(h1))
	if err != nil {
		t.Fatalf("Membership: %v", err)
	}
	if len(m) != 2 {
		t.Errorf("membership of web∩internal = %v, want both predicates", m)
	}
}

func TestClassifierAtomOutOfRange(t *testing.T) {
	s := NewSpace()
	c, err := NewClassifier(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClasses() != 1 {
		t.Fatalf("empty classifier should have 1 class, got %d", c.NumClasses())
	}
	if _, err := c.Atom(5); err == nil {
		t.Fatal("out-of-range atom should fail")
	}
	if _, err := c.Membership(-1); err == nil {
		t.Fatal("out-of-range membership should fail")
	}
}

// TestAtomsArePartition is the core correctness property from Yang & Lam:
// for random predicate sets, atoms are non-empty, disjoint, cover the
// space, and every predicate is a union of atoms.
func TestAtomsArePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		s := NewSpace()
		var preds []Predicate
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			plen := 4 + rng.Intn(12)
			addr := rng.Uint32()
			p, err := s.Prefix(FieldSrcIP, addr, plen)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				q, err := s.Exact(FieldProto, uint32(rng.Intn(256)))
				if err != nil {
					t.Fatal(err)
				}
				p = p.And(q)
			}
			preds = append(preds, p)
		}
		c, err := NewClassifier(s, preds)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckPartition(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestFieldString(t *testing.T) {
	fields := []Field{FieldSrcIP, FieldDstIP, FieldProto, FieldSrcPort, FieldDstPort}
	names := []string{"srcIP", "dstIP", "proto", "srcPort", "dstPort"}
	for i, f := range fields {
		if f.String() != names[i] {
			t.Errorf("Field %d String = %q, want %q", i, f.String(), names[i])
		}
	}
	if Field(99).String() == "" {
		t.Error("unknown field should still render")
	}
}
