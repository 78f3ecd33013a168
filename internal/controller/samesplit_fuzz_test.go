package controller

// FuzzSameSplit: ReOptimize classifies a class by streaming the capacity
// expansion of its new split against the installed sub-classes, in
// scratch buffers reused from class to class. The oracle is the comparison
// it replaced, kept here: build the sub-classes and their expansion in
// full, then compare.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// materializedSameSplit is sameSplit as it was before it streamed.
func materializedSameSplit(old *Assignment, cl core.Class, dist [][]float64) (bool, error) {
	subs, err := core.Subclasses(cl, dist)
	if err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	expanded, err := expandForCapacity(cl, subs)
	if err != nil {
		return false, fmt.Errorf("controller: %w", err)
	}
	if len(expanded) != old.NumSubclasses() {
		return false, nil
	}
	for i := range expanded {
		if quantPortion(expanded[i].Portion) != quantPortion(old.Subclass(i).Portion) ||
			!slices.Equal(expanded[i].Hops, old.Subclass(i).Hops) {
			return false, nil
		}
	}
	return true, nil
}

// splitCase is one decoded input: a class, a distribution of it that
// satisfies Eq. 3, and the installed sub-classes to compare it against.
type splitCase struct {
	cl   core.Class
	dist [][]float64
	old  *Assignment
}

// decodeSplitCase reads a class of one to four chain positions on a path
// of one to six hops, at a rate that makes the capacity expansion cut
// sub-classes into slices and sometimes exceed the tag budget, and a
// distribution built position by position as the pointwise minimum of the
// previous position's cumulative distribution and a fresh one, which is
// exactly Eq. 3. Weights in 0..4 make breakpoints of different positions
// coincide. The installed sub-classes are this split's own expansion,
// another split's, the same split's at another rate, or one of those with
// the last sub-class dropped or repeated or a hop moved.
func decodeSplitCase(data []byte) splitCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nfs := []policy.NF{policy.Firewall, policy.IDS, policy.Proxy, policy.NAT}
	nHop, nPos := 1+next()%6, 1+next()%4
	cl := core.Class{ID: core.ClassID(next()), Path: make([]topology.NodeID, nHop), RateMbps: float64(next()*next()) / 2}
	for i := range cl.Path {
		cl.Path[i] = topology.NodeID(i)
	}
	for range nPos {
		cl.Chain = append(cl.Chain, nfs[next()%len(nfs)])
	}
	distribution := func() [][]float64 {
		dist := make([][]float64, nHop)
		for i := range dist {
			dist[i] = make([]float64, nPos)
		}
		prev := make([]float64, nHop)
		for j := 0; j < nPos; j++ {
			w := make([]float64, nHop)
			total := 0.0
			for i := range w {
				w[i] = float64(next() % 5)
				total += w[i]
			}
			if total == 0 {
				w[next()%nHop], total = 1, 1
			}
			acc, last := 0.0, 0.0
			for i := range w {
				acc += w[i]
				sigma := acc / total
				if j > 0 {
					sigma = math.Min(sigma, prev[i])
				}
				dist[i][j] = sigma - last
				prev[i], last = sigma, sigma
			}
		}
		return dist
	}
	dist := distribution()
	installed := func(cl core.Class, dist [][]float64) []core.Subclass {
		subs, err := core.Subclasses(cl, dist)
		if err != nil {
			return nil
		}
		if subs, err = expandForCapacity(cl, subs); err != nil {
			return nil
		}
		return subs
	}
	var subs []core.Subclass
	switch mode := next(); mode % 3 {
	case 0:
		subs = installed(cl, dist)
	case 1:
		subs = installed(cl, distribution())
	default:
		other := cl
		other.RateMbps = float64(next()*next()) / 2
		subs = installed(other, dist)
	}
	if len(subs) > 0 {
		switch next() % 5 {
		case 0:
			subs = subs[:len(subs)-1]
		case 1:
			subs = append(subs, subs[len(subs)-1])
		case 2:
			s, j := next()%len(subs), next()%nPos
			moved := slices.Clone(subs[s].Hops)
			moved[j] = (moved[j] + 1) % nHop
			subs[s].Hops = moved
		}
	}
	return splitCase{cl: cl, dist: dist, old: recordOf(cl, subs)}
}

// recordOf is an assignment of cl holding the given sub-classes, and only
// what sameSplit reads of them.
func recordOf(cl core.Class, subs []core.Subclass) *Assignment {
	a := &Assignment{Class: cl, subs: make([]subRecord, len(subs))}
	for s, sub := range subs {
		a.subs[s] = subRecord{hops: sub.Hops, portion: sub.Portion, weight: sub.Portion}
	}
	return a
}

// splitTally counts the verdicts a run of runSameSplit reached, so a test
// can tell a generator that exercises every outcome from a degenerate one.
type splitTally struct{ same, differ, refused int }

// runSameSplit is the body of FuzzSameSplit. c's sameSplit scratch and
// buf are the caller's, reused across inputs, so a result that depends on
// what an earlier, larger input left in a buffer shows as a mismatch.
func runSameSplit(t testing.TB, data []byte, c *Controller, buf *core.Coupling, tally *splitTally) {
	sc := decodeSplitCase(data)
	got, err := buf.Split(sc.cl, sc.dist)
	want, werr := core.Subclasses(sc.cl, sc.dist)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("class %+v dist %v: buffered coupling error %v, fresh %v", sc.cl, sc.dist, err, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("class %+v dist %v: buffered coupling %v, fresh %v", sc.cl, sc.dist, got, want)
	}
	for s := range got {
		if math.Float64bits(got[s].Portion) != math.Float64bits(want[s].Portion) || !slices.Equal(got[s].Hops, want[s].Hops) {
			t.Fatalf("class %+v dist %v: buffered coupling %v, fresh %v", sc.cl, sc.dist, got, want)
		}
	}
	same, err := c.sameSplit(sc.old, sc.cl, sc.dist)
	wantSame, werr := materializedSameSplit(sc.old, sc.cl, sc.dist)
	if same != wantSame || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("class %+v dist %v against %v: sameSplit %v, %v; materialized %v, %v",
			sc.cl, sc.dist, sc.old.snapshot().Subclasses, same, err, wantSame, werr)
	}
	switch {
	case err != nil:
		tally.refused++
	case same:
		tally.same++
	default:
		tally.differ++
	}
}

func splitSeed(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// FuzzSameSplit checks the streaming split comparison and the buffered
// coupling under it against the materialising code they replaced, with
// one controller scratch and one coupling buffer reused for every input.
func FuzzSameSplit(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(splitSeed(seed, 64))
	}
	c := &Controller{}
	var buf core.Coupling
	var tally splitTally
	f.Fuzz(func(t *testing.T, data []byte) { runSameSplit(t, data, c, &buf, &tally) })
}

// TestSameSplitRandom runs the FuzzSameSplit body over generated inputs,
// so plain `go test` covers them too, and checks that they reach every
// verdict: the same split, a different one, and a tag-budget refusal.
func TestSameSplitRandom(t *testing.T) {
	c := &Controller{}
	var buf core.Coupling
	var tally splitTally
	for seed := int64(0); seed < 2000; seed++ {
		runSameSplit(t, splitSeed(seed, 16+int(seed%64)), c, &buf, &tally)
	}
	t.Logf("verdicts over 2000 inputs: %+v", tally)
	if tally.same < 200 || tally.differ < 200 || tally.refused < 20 {
		t.Fatalf("verdicts %+v: the generator is degenerate", tally)
	}
}
