package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// lineTopo builds a simple n-switch line graph.
func lineTopo(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph("line")
	var prev topology.NodeID
	for i := 0; i < n; i++ {
		id := g.AddNode("sw", topology.KindBackbone)
		if i > 0 {
			if err := g.AddLink(prev, id, 10_000, 1); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g
}

func path(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func bigHosts(n int) map[topology.NodeID]policy.Resources {
	out := make(map[topology.NodeID]policy.Resources, n)
	for i := 0; i < n; i++ {
		out[topology.NodeID(i)] = policy.Resources{Cores: 1024, MemoryMB: 1 << 20}
	}
	return out
}

func TestClassValidate(t *testing.T) {
	g := lineTopo(t, 3)
	good := Class{ID: 1, Path: path(3), Chain: policy.Chain{policy.Firewall}, RateMbps: 100}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
	bad := []Class{
		{ID: 1, Chain: policy.Chain{policy.Firewall}, RateMbps: 1},                                   // empty path
		{ID: 1, Path: path(3), RateMbps: 1},                                                          // empty chain
		{ID: 1, Path: path(3), Chain: policy.Chain{policy.Firewall}, RateMbps: -1},                   // negative rate
		{ID: 1, Path: path(3), Chain: policy.Chain{policy.Firewall}, RateMbps: math.NaN()},           // NaN
		{ID: 1, Path: []topology.NodeID{0, 1, 0}, Chain: policy.Chain{policy.Firewall}, RateMbps: 1}, // loop
		{ID: 1, Path: []topology.NodeID{0, 2}, Chain: policy.Chain{policy.Firewall}, RateMbps: 1},    // not adjacent
		{ID: 1, Path: []topology.NodeID{0, 99}, Chain: policy.Chain{policy.Firewall}, RateMbps: 1},   // unknown node
	}
	for i, c := range bad {
		if err := c.Validate(g); err == nil {
			t.Errorf("bad class %d accepted", i)
		}
	}
}

func TestHopIndex(t *testing.T) {
	c := Class{Path: []topology.NodeID{4, 7, 9}}
	if c.HopIndex(7) != 1 || c.HopIndex(5) != -1 {
		t.Fatal("HopIndex wrong")
	}
}

func TestProblemValidate(t *testing.T) {
	g := lineTopo(t, 2)
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("empty problem should fail")
	}
	var nilProb *Problem
	if err := nilProb.Validate(); err == nil {
		t.Error("nil problem should fail")
	}
	c := Class{ID: 1, Path: path(2), Chain: policy.Chain{policy.NAT}, RateMbps: 10}
	p := &Problem{Topo: g, Classes: []Class{c, c}}
	if err := p.Validate(); err == nil {
		t.Error("duplicate IDs should fail")
	}
	p2 := &Problem{Topo: g, Classes: []Class{c},
		Avail: map[topology.NodeID]policy.Resources{0: {Cores: -1}}}
	if err := p2.Validate(); err == nil {
		t.Error("negative resources should fail")
	}
}

// singleClassProblem: one class, rate 450 over a 3-switch line, chain
// FW→IDS, plentiful resources.
func singleClassProblem(t *testing.T) *Problem {
	t.Helper()
	g := lineTopo(t, 3)
	return &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 0, Path: path(3),
			Chain:    policy.Chain{policy.Firewall, policy.IDS},
			RateMbps: 450,
		}},
		Avail: bigHosts(3),
	}
}

func TestEngineSingleClass(t *testing.T) {
	prob := singleClassProblem(t)
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// 450 Mbps needs 1 firewall (900) and 1 IDS (600): optimal is 2.
	if pl.Objective != 2 {
		t.Fatalf("objective = %d, want 2", pl.Objective)
	}
	if pl.Method != "lp-relaxation" {
		t.Fatalf("method = %q", pl.Method)
	}
	if pl.SolveTime <= 0 {
		t.Fatal("solve time not recorded")
	}
}

func TestEngineExactMatchesRelaxationOnSmall(t *testing.T) {
	prob := singleClassProblem(t)
	relaxed, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEngine(EngineOptions{Exact: true}).Solve(prob)
	if err != nil {
		t.Fatalf("exact Solve: %v", err)
	}
	if err := exact.Verify(prob); err != nil {
		t.Fatalf("exact Verify: %v", err)
	}
	if exact.Objective > relaxed.Objective {
		t.Fatalf("exact %d worse than relaxation %d", exact.Objective, relaxed.Objective)
	}
	if exact.Method != "branch-and-bound" {
		t.Fatalf("method = %q", exact.Method)
	}
}

func TestEngineCapacitySplitting(t *testing.T) {
	// 1800 Mbps of firewall traffic needs 2 instances (900 each); with
	// only 4 cores per switch (one firewall max), the load must split
	// across two switches.
	g := lineTopo(t, 3)
	avail := map[topology.NodeID]policy.Resources{
		0: {Cores: 4, MemoryMB: 4096},
		1: {Cores: 4, MemoryMB: 4096},
		2: {Cores: 4, MemoryMB: 4096},
	}
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 0, Path: path(3),
			Chain:    policy.Chain{policy.Firewall},
			RateMbps: 1800,
		}},
		Avail: avail,
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if pl.Objective != 2 {
		t.Fatalf("objective = %d, want 2", pl.Objective)
	}
	if len(pl.Switches()) != 2 {
		t.Fatalf("instances on %d switches, want 2", len(pl.Switches()))
	}
}

func TestEngineMultiplexing(t *testing.T) {
	// Two 300 Mbps classes sharing a middle switch should share one
	// firewall instance there (multiplexing, the benefit over ingress).
	g := topology.NewGraph("y")
	a := g.AddNode("a", topology.KindBackbone)
	b := g.AddNode("b", topology.KindBackbone)
	m := g.AddNode("m", topology.KindBackbone)
	d := g.AddNode("d", topology.KindBackbone)
	for _, pair := range [][2]topology.NodeID{{a, m}, {b, m}, {m, d}} {
		if err := g.AddLink(pair[0], pair[1], 10_000, 1); err != nil {
			t.Fatal(err)
		}
	}
	prob := &Problem{
		Topo: g,
		Classes: []Class{
			{ID: 0, Path: []topology.NodeID{a, m, d}, Chain: policy.Chain{policy.Firewall}, RateMbps: 300},
			{ID: 1, Path: []topology.NodeID{b, m, d}, Chain: policy.Chain{policy.Firewall}, RateMbps: 300},
		},
		Avail: bigHosts(4),
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if pl.Objective != 1 {
		t.Fatalf("objective = %d, want 1 (shared instance)", pl.Objective)
	}
	ing, err := SolveIngress(prob)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Objective != 2 {
		t.Fatalf("ingress objective = %d, want 2 (dedicated per class)", ing.Objective)
	}
}

func TestEngineChainOrderAcrossSwitches(t *testing.T) {
	// Tight resources force FW and IDS onto different switches; order must
	// still hold (FW before IDS along the path).
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo: g,
		Classes: []Class{{
			ID: 0, Path: path(2),
			Chain:    policy.Chain{policy.Firewall, policy.IDS},
			RateMbps: 500,
		}},
		Avail: map[topology.NodeID]policy.Resources{
			0: {Cores: 4, MemoryMB: 64},   // fits only the ClickOS firewall
			1: {Cores: 8, MemoryMB: 8192}, // fits only the IDS
		},
	}
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	d := pl.Dist[0]
	if d[0][0] < 0.99 || d[1][1] < 0.99 {
		t.Fatalf("expected FW at hop 0 and IDS at hop 1, got %v", d)
	}
}

func TestEngineInfeasibleNoHosts(t *testing.T) {
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo:    g,
		Classes: []Class{{ID: 0, Path: path(2), Chain: policy.Chain{policy.NAT}, RateMbps: 10}},
		Avail:   map[topology.NodeID]policy.Resources{},
	}
	if _, err := NewEngine(EngineOptions{}).Solve(prob); err == nil {
		t.Fatal("no hosts anywhere should fail")
	}
	if _, err := SolveGreedy(prob); err == nil {
		t.Fatal("greedy with no hosts should fail")
	}
	if _, err := SolveIngress(prob); err == nil {
		t.Fatal("ingress with no hosts should fail")
	}
}

func TestEngineInfeasibleCapacity(t *testing.T) {
	// 10 Gbps of IDS traffic through one switch with 8 cores: one IDS
	// instance (600 Mbps) can never cover it.
	g := lineTopo(t, 2)
	prob := &Problem{
		Topo:    g,
		Classes: []Class{{ID: 0, Path: path(2), Chain: policy.Chain{policy.IDS}, RateMbps: 10_000}},
		Avail: map[topology.NodeID]policy.Resources{
			0: {Cores: 8, MemoryMB: 8192},
		},
	}
	if _, err := NewEngine(EngineOptions{}).Solve(prob); err == nil {
		t.Fatal("insufficient capacity should fail")
	}
}

func TestGreedyFeasibleAndWorseOrEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := lineTopo(t, 4)
		gen, err := policy.NewGenerator(int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		var classes []Class
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			classes = append(classes, Class{
				ID:       ClassID(i),
				Path:     path(4),
				Chain:    gen.Next(),
				RateMbps: 50 + float64(rng.Intn(800)),
			})
		}
		prob := &Problem{Topo: g, Classes: classes, Avail: bigHosts(4)}
		lpPl, err := NewEngine(EngineOptions{}).Solve(prob)
		if err != nil {
			t.Fatalf("trial %d LP: %v", trial, err)
		}
		if err := lpPl.Verify(prob); err != nil {
			t.Fatalf("trial %d LP verify: %v", trial, err)
		}
		gr, err := SolveGreedy(prob)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if err := gr.Verify(prob); err != nil {
			t.Fatalf("trial %d greedy verify: %v", trial, err)
		}
		if gr.Objective < lpPl.Objective {
			t.Fatalf("trial %d: greedy %d beat LP %d — LP should be at least as good",
				trial, gr.Objective, lpPl.Objective)
		}
		ing, err := SolveIngress(prob)
		if err != nil {
			t.Fatalf("trial %d ingress: %v", trial, err)
		}
		if ing.Objective < lpPl.Objective {
			t.Fatalf("trial %d: ingress %d beat LP %d", trial, ing.Objective, lpPl.Objective)
		}
	}
}

func TestIngressConsolidatesAtIngress(t *testing.T) {
	prob := singleClassProblem(t)
	pl, err := SolveIngress(prob)
	if err != nil {
		t.Fatal(err)
	}
	sw := pl.Switches()
	if len(sw) != 1 || sw[0] != 0 {
		t.Fatalf("ingress placed on switches %v, want [0]", sw)
	}
	if pl.Method != "ingress" {
		t.Fatalf("method = %q", pl.Method)
	}
	// Dist must still satisfy policy constraints (3)-(4).
	if err := pl.Verify(prob); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPlacementAccessors(t *testing.T) {
	pl := &Placement{Counts: map[topology.NodeID]map[policy.NF]int{
		2: {policy.Firewall: 2},
		5: {policy.IDS: 1},
		7: {},
	}}
	if pl.TotalInstances() != 3 {
		t.Fatalf("TotalInstances = %d", pl.TotalInstances())
	}
	r, err := pl.TotalResources()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 2*4+8 {
		t.Fatalf("cores = %d, want 16", r.Cores)
	}
	sw := pl.Switches()
	if len(sw) != 2 || sw[0] != 2 || sw[1] != 5 {
		t.Fatalf("Switches = %v", sw)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	prob := singleClassProblem(t)
	pl, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the distribution: move all processing of position 1 before
	// position 0.
	bad := &Placement{Counts: pl.Counts, Dist: map[ClassID][][]float64{
		0: {{0, 1}, {0, 0}, {1, 0}},
	}}
	err = bad.Verify(prob)
	if err == nil || !strings.Contains(err.Error(), "Eq. 3") {
		t.Fatalf("order violation not caught: %v", err)
	}
	// Under-processing violates Eq. 4.
	bad2 := &Placement{Counts: pl.Counts, Dist: map[ClassID][][]float64{
		0: {{0.5, 0.5}, {0, 0}, {0, 0}},
	}}
	err = bad2.Verify(prob)
	if err == nil || !strings.Contains(err.Error(), "Eq. 4") {
		t.Fatalf("under-processing not caught: %v", err)
	}
	// Overloaded instances violate Eq. 5.
	bad3 := &Placement{
		Counts: map[topology.NodeID]map[policy.NF]int{},
		Dist:   pl.Dist,
	}
	err = bad3.Verify(prob)
	if err == nil || !strings.Contains(err.Error(), "Eq. 5") {
		t.Fatalf("capacity violation not caught: %v", err)
	}
}

func TestSubclassesSingleHop(t *testing.T) {
	c := Class{ID: 0, Path: path(2), Chain: policy.Chain{policy.Firewall}}
	subs, err := Subclasses(c, [][]float64{{1}, {0}})
	if err != nil {
		t.Fatalf("Subclasses: %v", err)
	}
	if len(subs) != 1 || subs[0].Portion != 1 || subs[0].Hops[0] != 0 {
		t.Fatalf("subs = %+v", subs)
	}
}

func TestSubclassesSplit(t *testing.T) {
	// FW split 60/40 between hops 0 and 1; IDS all at hop 1.
	c := Class{ID: 0, Path: path(2), Chain: policy.Chain{policy.Firewall, policy.IDS}}
	dist := [][]float64{
		{0.6, 0},
		{0.4, 1},
	}
	subs, err := Subclasses(c, dist)
	if err != nil {
		t.Fatalf("Subclasses: %v", err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d sub-classes, want 2: %+v", len(subs), subs)
	}
	if math.Abs(subs[0].Portion-0.6) > 1e-9 || subs[0].Hops[0] != 0 || subs[0].Hops[1] != 1 {
		t.Fatalf("first sub-class = %+v", subs[0])
	}
	if math.Abs(subs[1].Portion-0.4) > 1e-9 || subs[1].Hops[0] != 1 || subs[1].Hops[1] != 1 {
		t.Fatalf("second sub-class = %+v", subs[1])
	}
	portions := SubclassPortions(subs)
	total := 0.0
	for _, p := range portions {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("portions sum to %v", total)
	}
}

func TestSubclassesRejectBadInput(t *testing.T) {
	c := Class{ID: 0, Path: path(2), Chain: policy.Chain{policy.Firewall}}
	if _, err := Subclasses(c, [][]float64{{1}}); err == nil {
		t.Error("wrong hop count should fail")
	}
	if _, err := Subclasses(c, [][]float64{{0.5}, {0.2}}); err == nil {
		t.Error("under-processing should fail")
	}
	if _, err := Subclasses(c, [][]float64{{2}, {-1}}); err == nil {
		t.Error("out-of-range d should fail")
	}
	c2 := Class{ID: 0, Path: path(2), Chain: policy.Chain{policy.Firewall, policy.IDS}}
	// Violates Eq. 3: position 1 runs strictly before position 0.
	bad := [][]float64{
		{0, 1},
		{1, 0},
	}
	if _, err := Subclasses(c2, bad); err == nil {
		t.Error("Eq. 3 violation should fail")
	}
}

// TestSubclassesHopsMonotone: for every placement the LP engine produces,
// derived sub-class hop vectors are non-decreasing (enforceable in path
// order) and portions sum to 1.
func TestSubclassesHopsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gen, err := policy.NewGenerator(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		g := lineTopo(t, 5)
		var classes []Class
		for i := 0; i < 3; i++ {
			classes = append(classes, Class{
				ID: ClassID(i), Path: path(5), Chain: gen.Next(),
				RateMbps: 100 + float64(rng.Intn(1500)),
			})
		}
		prob := &Problem{Topo: g, Classes: classes, Avail: bigHosts(5)}
		pl, err := NewEngine(EngineOptions{}).Solve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, c := range classes {
			subs, err := Subclasses(c, pl.Dist[c.ID])
			if err != nil {
				t.Fatalf("trial %d class %d: %v", trial, c.ID, err)
			}
			total := 0.0
			for _, s := range subs {
				total += s.Portion
				for j := 1; j < len(s.Hops); j++ {
					if s.Hops[j] < s.Hops[j-1] {
						t.Fatalf("trial %d class %d: hops %v not monotone", trial, c.ID, s.Hops)
					}
				}
			}
			if math.Abs(total-1) > 1e-6 {
				t.Fatalf("trial %d class %d: portions sum to %v", trial, c.ID, total)
			}
		}
	}
}

func TestBuildProblem(t *testing.T) {
	g := topology.Internet2()
	masses := make([]float64, g.NumNodes())
	for i := range masses {
		masses[i] = 1
	}
	tm, err := traffic.Gravity(masses, 5000)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := policy.NewGenerator(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	avail := UniformHosts(g, policy.Resources{Cores: 64, MemoryMB: 128 * 1024})
	prob, err := BuildProblem(g, tm, gen, avail, BuildOptions{MinRateMbps: 5, MaxClasses: 20})
	if err != nil {
		t.Fatalf("BuildProblem: %v", err)
	}
	if len(prob.Classes) != 20 {
		t.Fatalf("classes = %d, want capped at 20", len(prob.Classes))
	}
	if err := prob.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Classes are sorted by descending rate.
	for i := 1; i < len(prob.Classes); i++ {
		if prob.Classes[i].RateMbps > prob.Classes[i-1].RateMbps {
			t.Fatal("classes not sorted by rate")
		}
	}
	if _, err := BuildProblem(nil, tm, gen, avail, BuildOptions{}); err == nil {
		t.Error("nil topology should fail")
	}
	small, err := traffic.NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProblem(g, small, gen, avail, BuildOptions{}); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := BuildProblem(g, small, gen, avail, BuildOptions{MinRateMbps: 1e12}); err == nil {
		t.Error("threshold dropping everything should fail")
	}
}

func TestEdgeHeavyHosts(t *testing.T) {
	g := topology.UNIV1()
	m := EdgeHeavyHosts(g, policy.Resources{Cores: 64, MemoryMB: 1 << 17}, policy.Resources{Cores: 8, MemoryMB: 1 << 13})
	c1, _ := g.Lookup("core-1")
	e1, _ := g.Lookup("edge-1")
	if m[c1].Cores != 8 || m[e1].Cores != 64 {
		t.Fatalf("core=%v edge=%v", m[c1], m[e1])
	}
	u := UniformHosts(g, policy.Resources{Cores: 64, MemoryMB: 1})
	if len(u) != g.NumNodes() {
		t.Fatal("UniformHosts incomplete")
	}
}

// TestExplicitSigmaMatchesEliminated: both model formulations must reach
// the same objective and verify (they encode identical constraints).
func TestExplicitSigmaMatchesEliminated(t *testing.T) {
	gen, err := policy.NewGenerator(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := lineTopo(t, 4)
	var classes []Class
	for i := 0; i < 4; i++ {
		classes = append(classes, Class{
			ID: ClassID(i), Path: path(4), Chain: gen.Next(), RateMbps: 200 + float64(i)*150,
		})
	}
	prob := &Problem{Topo: g, Classes: classes, Avail: bigHosts(4)}
	elim, err := NewEngine(EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("eliminated: %v", err)
	}
	explicit, err := solveExplicitSigma(prob)
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	if err := explicit.Verify(prob); err != nil {
		t.Fatalf("explicit verify: %v", err)
	}
	if elim.Objective != explicit.Objective {
		t.Fatalf("objectives differ: eliminated %d vs explicit %d", elim.Objective, explicit.Objective)
	}
}

// TestSubclassesPropertyRandom: for random Eq.3-feasible distributions,
// the derived sub-classes have portions summing to 1, non-decreasing hop
// vectors, and their implied marginals reproduce the input distribution.
func TestSubclassesPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 100; trial++ {
		nHops := 2 + rng.Intn(5)
		nPos := 1 + rng.Intn(4)
		chain := policy.CommonChains()[nPos*3%10]
		if len(chain) > nPos {
			chain = chain[:nPos]
		}
		nPos = len(chain)
		c := Class{ID: 0, Path: path(nHops), Chain: chain}
		// Construct a feasible distribution by the comonotone recipe in
		// reverse: draw non-increasing cumulative curves F_j.
		dist := make([][]float64, nHops)
		for i := range dist {
			dist[i] = make([]float64, nPos)
		}
		prev := make([]float64, nHops) // F_{j-1}, init to all-ones curve
		for i := range prev {
			prev[i] = 1
		}
		for j := 0; j < nPos; j++ {
			// Random non-decreasing curve dominated by prev.
			cum := make([]float64, nHops)
			v := 0.0
			for i := 0; i < nHops; i++ {
				hi := prev[i]
				if i == nHops-1 {
					v = hi // must end at prev's end (=1 by induction)
				} else if hi > v {
					v += rng.Float64() * (hi - v)
				}
				cum[i] = v
			}
			cum[nHops-1] = prev[nHops-1]
			last := 0.0
			for i := 0; i < nHops; i++ {
				dist[i][j] = cum[i] - last
				last = cum[i]
			}
			copy(prev, cum)
		}
		subs, err := Subclasses(c, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := 0.0
		marginal := make([][]float64, nHops)
		for i := range marginal {
			marginal[i] = make([]float64, nPos)
		}
		for _, s := range subs {
			total += s.Portion
			for j := 1; j < len(s.Hops); j++ {
				if s.Hops[j] < s.Hops[j-1] {
					t.Fatalf("trial %d: hops %v not monotone", trial, s.Hops)
				}
			}
			for j, h := range s.Hops {
				marginal[h][j] += s.Portion
			}
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("trial %d: portions sum to %v", trial, total)
		}
		for i := 0; i < nHops; i++ {
			for j := 0; j < nPos; j++ {
				if math.Abs(marginal[i][j]-dist[i][j]) > 1e-6 {
					t.Fatalf("trial %d: marginal[%d][%d]=%v, dist=%v",
						trial, i, j, marginal[i][j], dist[i][j])
				}
			}
		}
	}
}
