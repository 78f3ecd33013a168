package headerspace

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randPred draws predicates that overlap often: prefixes nest inside a
// handful of blocks, port ranges share a low window, and a quarter of the
// draws are conjunctions across fields.
func randPred(t testing.TB, rng *rand.Rand, sp *Space) Predicate {
	t.Helper()
	one := func() Predicate {
		var p Predicate
		var err error
		switch rng.Intn(5) {
		case 0:
			p, err = sp.Prefix(FieldSrcIP, 10<<24|uint32(rng.Intn(4))<<16|uint32(rng.Intn(4))<<8, 8*(1+rng.Intn(3)))
		case 1:
			p, err = sp.Prefix(FieldDstIP, 172<<24|uint32(rng.Intn(16))<<12, 8+2*rng.Intn(8))
		case 2:
			lo := uint32(rng.Intn(1024))
			p, err = sp.Range(FieldDstPort, lo, lo+uint32(rng.Intn(1024)))
		case 3:
			p, err = sp.Exact(FieldSrcPort, uint32(rng.Intn(4)))
		default:
			p, err = sp.Exact(FieldProto, []uint32{ProtoTCP, ProtoUDP, ProtoICMP}[rng.Intn(3)])
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := one()
	switch rng.Intn(8) {
	case 0, 1:
		p = p.And(one())
	case 2:
		p = p.Or(one())
	}
	return p
}

// checkAgainstReference requires c to be exactly what the quadratic
// reference computes for preds: the same atoms, in the same order, with
// the signatures Covers derives, and every example header classified
// into its own atom.
func checkAgainstReference(t testing.TB, c *Classifier, sp *Space, preds []Predicate) {
	t.Helper()
	if err := c.CheckPartition(); err != nil {
		t.Fatalf("CheckPartition: %v", err)
	}
	want, err := sp.Atoms(preds)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClasses() != len(want) || c.NumPredicates() != len(preds) {
		t.Fatalf("%d classes over %d predicates, reference has %d over %d",
			c.NumClasses(), c.NumPredicates(), len(want), len(preds))
	}
	for i, w := range want {
		got, err := c.Atom(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(w) {
			t.Fatalf("class %d is not the reference's atom %d", i, i)
		}
		members, err := c.Membership(i)
		if err != nil {
			t.Fatal(err)
		}
		var covers []int
		for j, p := range preds {
			if p.Covers(w) {
				covers = append(covers, j)
			}
		}
		if !slices.Equal(members, covers) {
			t.Fatalf("class %d: Membership %v, Covers says %v", i, members, covers)
		}
		h, err := w.Example()
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Classify(h); got != i {
			t.Fatalf("example header of class %d classified as %d", i, got)
		}
	}
}

// TestClassifierMatchesQuadraticReference is the differential: the fold
// of Add reproduces the quadratic refinement atom for atom.
func TestClassifierMatchesQuadraticReference(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		preds := make([]Predicate, 1+rng.Intn(9))
		for i := range preds {
			preds[i] = randPred(t, rng, sp)
		}
		c, err := NewClassifier(sp, preds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstReference(t, c, sp, preds)
	}
}

// TestReferenceResidualIsLast pins the invariant that let the reference
// drop its relocation pass: the outside part of the last atom stays last
// at every step, so the atom no predicate covers needs no moving.
func TestReferenceResidualIsLast(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		preds := make([]Predicate, 1+rng.Intn(8))
		union := sp.False()
		for i := range preds {
			preds[i] = randPred(t, rng, sp)
			union = union.Or(preds[i])
		}
		atoms, err := sp.Atoms(preds)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range atoms {
			if residual := !a.Overlaps(union); residual != (i == len(atoms)-1 && !union.IsTrue()) {
				t.Fatalf("seed %d: atom %d of %d: residual = %v", seed, i, len(atoms), residual)
			}
		}
	}
}

// runClassifierOps is the body of FuzzClassifierOps: data drives a
// sequence of Add and Remove calls on one classifier, and after every
// step the classifier must equal both the quadratic reference and a
// classifier rebuilt from scratch over the surviving predicates.
func runClassifierOps(t testing.TB, data []byte) {
	const maxPreds, maxOps = 7, 32
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sp := NewSpace()
	c, err := NewClassifier(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	var model []Predicate
	for op := 0; op < maxOps && len(data) > 0; op++ {
		b := next()
		if len(model) > 0 && (b%4 == 0 || len(model) == maxPreds) {
			i := int(next()) % len(model)
			if err := c.Remove(i); err != nil {
				t.Fatalf("op %d: Remove(%d): %v", op, i, err)
			}
			model = append(model[:i], model[i+1:]...)
		} else {
			p := fuzzPred(t, sp, model, b>>2, next(), next())
			i, err := c.Add(p)
			if err != nil || i != len(model) {
				t.Fatalf("op %d: Add = %d, %v; want index %d", op, i, err, len(model))
			}
			model = append(model, p)
		}
		checkAgainstReference(t, c, sp, model)
		rebuilt, err := NewClassifier(sp, model)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rebuilt.NumClasses(); i++ {
			got, _ := c.Atom(i)
			want, _ := rebuilt.Atom(i)
			if !got.Equal(want) {
				t.Fatalf("op %d: class %d differs from the rebuilt classifier's", op, i)
			}
		}
	}
}

// fuzzPred decodes one predicate. The shapes overlap by construction, and
// the last three are the hostile ones: everything, nothing, a repeat.
func fuzzPred(t testing.TB, sp *Space, model []Predicate, kind, a, b byte) Predicate {
	t.Helper()
	var p Predicate
	var err error
	switch kind % 8 {
	case 0:
		p, err = sp.Prefix(FieldSrcIP, 10<<24|uint32(a&3)<<16|uint32(a>>2&3)<<8, 8*(1+int(b%3)))
	case 1:
		p, err = sp.Prefix(FieldDstIP, 172<<24|uint32(a&15)<<12, 8+2*int(b%8))
	case 2:
		p, err = sp.Range(FieldDstPort, uint32(a)*4, uint32(a)*4+uint32(b)*4)
	case 3:
		p, err = sp.Exact(FieldProto, []uint32{ProtoTCP, ProtoUDP, ProtoICMP}[a%3])
	case 4:
		var q Predicate
		if p, err = sp.Prefix(FieldSrcIP, 10<<24|uint32(a&3)<<16, 16); err == nil {
			q, err = sp.Range(FieldDstPort, uint32(b&15)*64, uint32(b&15)*64+uint32(b>>4)*32)
			p = p.And(q)
		}
	case 5:
		p = sp.True()
	case 6:
		p = sp.False()
	default:
		p = sp.False()
		if len(model) > 0 {
			p = model[int(a)%len(model)]
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// classifierOpsSeed returns n pseudo-random bytes.
func classifierOpsSeed(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// FuzzClassifierOps checks Add/Remove *sequences*: an incremental
// partition depends on every step that came before, which a
// build-then-compare test never exercises.
func FuzzClassifierOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(classifierOpsSeed(1, 60))
	f.Add(classifierOpsSeed(2, 140))
	// Cover the space, add inside it, uncover it, then empty the set.
	f.Add([]byte{5 << 2, 0, 0, 1, 5, 1, 1 << 2, 3, 4, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runClassifierOps(t, data) })
}

// TestClassifierOpsRandom runs the FuzzClassifierOps body over generated
// sequences, so plain `go test` covers them too.
func TestClassifierOpsRandom(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		runClassifierOps(t, classifierOpsSeed(seed, 30+int(seed)))
	}
}

// disjointPrefixes returns n pairwise-disjoint /24 source prefixes.
func disjointPrefixes(t testing.TB, sp *Space, n int) []Predicate {
	t.Helper()
	preds := make([]Predicate, n)
	for i := range preds {
		var err error
		if preds[i], err = sp.Prefix(FieldSrcIP, 10<<24|uint32(i)<<8, 24); err != nil {
			t.Fatal(err)
		}
	}
	return preds
}

// TestClassifierScalesLinearly counts BDD work, not time: four times the
// disjoint predicates may cost at most five times the Apply steps (the
// index adds a log factor), where refining every atom against every
// predicate costs sixteen times.
func TestClassifierScalesLinearly(t *testing.T) {
	applies := func(n int) int {
		sp := NewSpace()
		preds := disjointPrefixes(t, sp, n)
		before := sp.store.Applies()
		c, err := NewClassifier(sp, preds)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumClasses() != n+1 {
			t.Fatalf("%d classes for %d disjoint prefixes", c.NumClasses(), n)
		}
		return sp.store.Applies() - before
	}
	small, large := applies(250), applies(1000)
	t.Logf("Apply steps: %d for 250 predicates, %d for 1000 (%.2fx)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Fatalf("1000 disjoint predicates cost %d Apply steps, over 5x the %d of 250", large, small)
	}
}

// TestClassifyWalksLogarithmically: Classify walks one BDD per index
// slice, there are ⌈log₂ n⌉ of them, and a lookup neither allocates nor
// touches the store.
func TestClassifyWalksLogarithmically(t *testing.T) {
	sp := NewSpace()
	const n = 1000
	c, err := NewClassifier(sp, disjointPrefixes(t, sp, n))
	if err != nil {
		t.Fatal(err)
	}
	if want := bits.Len(n); len(c.slices) != want {
		t.Fatalf("%d index slices for %d classes, want %d", len(c.slices), c.NumClasses(), want)
	}
	size, steps := sp.store.Size(), sp.store.Applies()
	h := Header{SrcIP: 10<<24 | 777<<8 | 9, Proto: ProtoTCP}
	want := -1
	for i := 0; i < c.NumClasses(); i++ {
		if a, _ := c.Atom(i); a.Matches(h) {
			want = i
		}
	}
	var got int
	if allocs := testing.AllocsPerRun(100, func() { got = c.Classify(h) }); allocs != 0 {
		t.Fatalf("Classify allocates %v times per call", allocs)
	}
	if got != want {
		t.Fatalf("Classify = %d, the atom matching the header is %d", got, want)
	}
	if sp.store.Size() != size || sp.store.Applies() != steps {
		t.Fatal("Classify wrote to the BDD store")
	}
}

// TestClassifyAllConcurrent classifies one batch from several pools at
// once; under -race it proves lookups share the classifier without
// writing to it.
func TestClassifyAllConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := NewSpace()
	preds := make([]Predicate, 12)
	for i := range preds {
		preds[i] = randPred(t, rng, sp)
	}
	c, err := NewClassifier(sp, preds)
	if err != nil {
		t.Fatal(err)
	}
	hdrs := make([]Header, 4000)
	for i := range hdrs {
		hdrs[i] = Header{
			SrcIP:   10<<24 | rng.Uint32()&0x3ffff,
			DstIP:   172<<24 | rng.Uint32()&0xffff,
			Proto:   uint8([]uint32{ProtoTCP, ProtoUDP, ProtoICMP}[rng.Intn(3)]),
			SrcPort: uint16(rng.Intn(8)),
			DstPort: uint16(rng.Intn(2048)),
		}
	}
	want := c.ClassifyAll(hdrs, 1)
	for i, h := range hdrs {
		if a, _ := c.Atom(want[i]); !a.Matches(h) {
			t.Fatalf("header %d classified into an atom that does not match it", i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := c.ClassifyAll(hdrs, 4)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("header %d: class %d with 4 workers, %d with 1", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClassifierHostileInputs: degenerate predicates give the documented
// partition and foreign ones a typed error; nothing panics.
func TestClassifierHostileInputs(t *testing.T) {
	sp, other := NewSpace(), NewSpace()
	a := mustCIDR(t, sp, FieldSrcIP, "10.0.0.0/8")

	if _, err := NewClassifier(nil, nil); err == nil {
		t.Error("nil Space should be refused")
	}
	for _, foreign := range []Predicate{other.True(), {}} {
		if _, err := NewClassifier(sp, []Predicate{a, foreign}); !errors.Is(err, ErrForeignSpace) {
			t.Errorf("NewClassifier with a foreign predicate: %v, want ErrForeignSpace", err)
		}
	}

	preds := []Predicate{sp.False(), a, a, sp.True(), sp.False()}
	c, err := NewClassifier(sp, preds)
	if err != nil {
		t.Fatal(err)
	}
	// False covers nothing, the duplicate shares its twin's atoms, and
	// True leaves no residual: {a, a, True} and {True}.
	checkAgainstReference(t, c, sp, preds)
	if c.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d, want 2", c.NumClasses())
	}
	if m, _ := c.Membership(0); !slices.Equal(m, []int{1, 2, 3}) {
		t.Fatalf("Membership(0) = %v, want [1 2 3]", m)
	}

	if _, err := c.Add(other.True()); !errors.Is(err, ErrForeignSpace) {
		t.Errorf("Add of a foreign predicate: %v, want ErrForeignSpace", err)
	}
	if _, err := c.Overlapping(Predicate{}); !errors.Is(err, ErrForeignSpace) {
		t.Errorf("Overlapping a foreign predicate: %v, want ErrForeignSpace", err)
	}
	for _, i := range []int{-1, len(preds)} {
		if err := c.Remove(i); !errors.Is(err, ErrNoPredicate) {
			t.Errorf("Remove(%d): %v, want ErrNoPredicate", i, err)
		}
	}
	checkAgainstReference(t, c, sp, preds) // the refusals changed nothing

	// Removing True brings the residual back; removing everything leaves
	// the one-class partition.
	for len(preds) > 0 {
		i := len(preds) / 2
		if err := c.Remove(i); err != nil {
			t.Fatal(err)
		}
		preds = append(preds[:i], preds[i+1:]...)
		checkAgainstReference(t, c, sp, preds)
	}
	if c.NumClasses() != 1 {
		t.Fatalf("empty predicate set has %d classes", c.NumClasses())
	}
}

// TestOverlapping: the index returns exactly the classes a predicate
// meets, in class order, each with the headers they share.
func TestOverlapping(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		preds := make([]Predicate, 2+rng.Intn(8))
		for i := range preds {
			preds[i] = randPred(t, rng, sp)
		}
		c, err := NewClassifier(sp, preds)
		if err != nil {
			t.Fatal(err)
		}
		q := randPred(t, rng, sp)
		got, err := c.Overlapping(q)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for i := 0; i < c.NumClasses(); i++ {
			a, _ := c.Atom(i)
			in := a.And(q)
			if in.IsFalse() {
				continue
			}
			if k >= len(got) || got[k].Class != i || !got[k].Pred.Equal(in) {
				t.Fatalf("seed %d: class %d overlaps the query but is not result %d of %d", seed, i, k, len(got))
			}
			k++
		}
		if k != len(got) {
			t.Fatalf("seed %d: %d results, %d classes overlap", seed, len(got), k)
		}
	}
}
