package core

// FuzzGreedyDist: GreedyDist packs a class earliest-first against a fixed
// capacity table per (hop, position). Earliest-first packing gives every
// position the pointwise-largest cumulative share Eq. (3) allows, so with
// fixed capacities a refusal is correct exactly when no distribution
// satisfies Eqs. (3) and (4) within the capacities. The oracle for a
// refusal is that LP, built here with internal/lp.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// greedyCase is one decoded input: a class, its eligible hops and the
// fraction of the class each (hop, position) can absorb.
type greedyCase struct {
	cl   Class
	hops []int
	cap  [][]float64 // cap[i][j]
}

// capStep is the grid capacities are drawn on. Every share GreedyDist
// computes is then a sum, difference or minimum of grid points no larger
// than 2, exact in float64, so a refusal leaves at least capStep of the
// class unplaced: far outside the LP's 1e-9 feasibility tolerance, and
// any disagreement between the two is a bug rather than rounding.
const capStep = 1.0 / 64

// decodeGreedyCase reads a path of one to six hops, each eligible with
// probability 3/4, a chain of one to four distinct NFs, and capacities of
// 0 to 63 grid steps, so that no hop takes a whole position alone and
// both placements and refusals are common.
func decodeGreedyCase(data []byte) greedyCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nHop, nPos := 1+next()%6, 1+next()%4
	nfs := policy.AllNFs()
	for k := len(nfs) - 1; k > 0; k-- {
		m := next() % (k + 1)
		nfs[k], nfs[m] = nfs[m], nfs[k]
	}
	gc := greedyCase{cl: Class{ID: ClassID(next()), Path: make([]topology.NodeID, nHop), Chain: nfs[:nPos], RateMbps: 100}}
	gc.cap = make([][]float64, nHop)
	for i := range gc.cl.Path {
		gc.cl.Path[i] = topology.NodeID(i)
		if next()%4 != 0 {
			gc.hops = append(gc.hops, i)
		}
		gc.cap[i] = make([]float64, nPos)
		for j := range gc.cap[i] {
			gc.cap[i][j] = float64(next()%64) * capStep
		}
	}
	return gc
}

// feasible reports whether some distribution over the eligible hops meets
// Eq. (4) (every position sums to 1), Eq. (3) (σ_j(i) ≤ σ_{j-1}(i) at
// every eligible hop i) and 0 ≤ d ≤ cap.
func (gc greedyCase) feasible() (bool, error) {
	m := lp.NewModel("greedy-oracle")
	nPos := len(gc.cl.Chain)
	x := make([][]lp.VarID, len(gc.hops)) // x[k][j] is d at hop gc.hops[k]
	for k, i := range gc.hops {
		x[k] = make([]lp.VarID, nPos)
		for j := range x[k] {
			v, err := m.AddVariable(fmt.Sprintf("d[%d][%d]", i, j), 0, gc.cap[i][j], 0)
			if err != nil {
				return false, err
			}
			x[k][j] = v
		}
	}
	for j := 0; j < nPos; j++ {
		var sum []lp.Term
		for k := range gc.hops {
			sum = append(sum, lp.Term{Var: x[k][j], Coef: 1})
		}
		if err := m.AddConstraint(fmt.Sprintf("eq4[%d]", j), lp.EQ, 1, sum...); err != nil {
			return false, err
		}
		if j == 0 {
			continue
		}
		var prefix []lp.Term
		for k := range gc.hops {
			prefix = append(prefix, lp.Term{Var: x[k][j], Coef: 1}, lp.Term{Var: x[k][j-1], Coef: -1})
			if err := m.AddConstraint(fmt.Sprintf("eq3[%d][%d]", k, j), lp.LE, 0, prefix...); err != nil {
				return false, err
			}
		}
	}
	_, err := lp.NewSolver(m).Solve()
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, lp.ErrInfeasible):
		return false, nil
	default:
		return false, err
	}
}

// greedyOutcome is what one run of runGreedyDist reached, so a test can
// tell a generator that exercises every outcome from a degenerate one.
type greedyOutcome int

const (
	greedyPlaced greedyOutcome = iota
	greedyRefusedFirst
	// greedyRefusedLater is a refusal past the first position, where the
	// Eq. (3) budget shaped it.
	greedyRefusedLater
	greedyNoHost
)

// runGreedyDist is the body of FuzzGreedyDist.
func runGreedyDist(t testing.TB, data []byte) greedyOutcome {
	gc := decodeGreedyCase(data)
	pos := make(map[policy.NF]int, len(gc.cl.Chain))
	for j, nf := range gc.cl.Chain {
		pos[nf] = j
	}
	lastHop, lastPos := -1, -1
	d, err := GreedyDist(gc.cl, gc.hops, func(i int, nf policy.NF, take float64) float64 {
		j := pos[nf]
		if !slices.Contains(gc.hops, i) || j < lastPos || (j == lastPos && i <= lastHop) {
			t.Fatalf("case %+v: offered hop %d position %d after hop %d position %d", gc, i, j, lastHop, lastPos)
		}
		if take <= 0 || take > 1 {
			t.Fatalf("case %+v: offered %v of the class at hop %d position %d", gc, take, i, j)
		}
		lastHop, lastPos = i, j
		return math.Min(take, gc.cap[i][j])
	})
	if len(gc.hops) == 0 {
		if err == nil || !strings.Contains(err.Error(), "no APPLE host") {
			t.Fatalf("case %+v: no eligible hop, got %v", gc, err)
		}
		return greedyNoHost
	}
	if err != nil {
		ok, lerr := gc.feasible()
		if lerr != nil {
			t.Fatalf("case %+v: oracle: %v", gc, lerr)
		}
		if ok {
			t.Fatalf("case %+v: GreedyDist refused (%v) but a distribution exists", gc, err)
		}
		if lastPos > 0 {
			// The last position offered is the one refused.
			return greedyRefusedLater
		}
		return greedyRefusedFirst
	}
	if _, err := Subclasses(gc.cl, d); err != nil {
		t.Fatalf("case %+v: distribution %v: %v", gc, d, err)
	}
	prev := make([]float64, len(gc.cl.Path))
	for j := range gc.cl.Chain {
		acc := 0.0
		for i := range gc.cl.Path {
			if d[i][j] > gc.cap[i][j]+1e-12 || (d[i][j] != 0 && !slices.Contains(gc.hops, i)) {
				t.Fatalf("case %+v: d[%d][%d] = %v beyond its capacity", gc, i, j, d[i][j])
			}
			acc += d[i][j]
			if j > 0 && acc > prev[i]+1e-9 {
				t.Fatalf("case %+v: distribution %v breaks Eq. (3) at hop %d position %d", gc, d, i, j)
			}
			prev[i] = acc
		}
	}
	return greedyPlaced
}

func greedySeed(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// FuzzGreedyDist checks GreedyDist's placements against Eqs. (3), (4)
// and the capacities, and its refusals against an LP over the same
// capacities.
func FuzzGreedyDist(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(greedySeed(seed, 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runGreedyDist(t, data) })
}

// TestGreedyDistRandom runs the FuzzGreedyDist body over generated
// inputs, so plain `go test` covers them too, and checks that they reach
// every outcome: a placement, a refusal the LP confirms, one past the
// first position, and a path with no host.
func TestGreedyDistRandom(t *testing.T) {
	var n [greedyNoHost + 1]int
	for seed := int64(0); seed < 2000; seed++ {
		n[runGreedyDist(t, greedySeed(seed, 16+int(seed%48)))]++
	}
	placed, refused, later, noHost := n[greedyPlaced], n[greedyRefusedFirst]+n[greedyRefusedLater], n[greedyRefusedLater], n[greedyNoHost]
	t.Logf("outcomes over 2000 inputs: %d placed, %d refused (%d past position 0), %d with no host", placed, refused, later, noHost)
	if placed < 200 || refused < 200 || later < 50 || noHost < 20 {
		t.Fatalf("outcomes %v: the generator is degenerate", n)
	}
}
