package topology

import (
	"fmt"
	"math/rand"
)

// The four evaluation topologies from §IX-A of the paper. Node and link
// counts match Table V exactly: Internet2 (12, 15), GEANT (23, 74 directed
// = 37 undirected), UNIV1 (23, 43), AS-3679 (79, 147).
//
// The public Abilene/Internet2 map and the TOTEM GEANT data are not
// redistributable in raw form; the constructors below rebuild the graphs
// from published node lists and standard structure. AS-3679 is synthesized
// with a Rocketfuel-like preferential-attachment process (see DESIGN.md §1).

// mustLink is used by the fixed constructors where the link list is a
// compile-time constant; any failure is a programming error.
func mustLink(g *Graph, a, b NodeID, capacityMbps float64) {
	if err := g.AddLink(a, b, capacityMbps, 1); err != nil {
		panic(fmt.Sprintf("topology: bad builtin link: %v", err))
	}
}

// Internet2 returns the 12-node, 15-link Internet2/Abilene research
// backbone used for the campus-network scenario.
func Internet2() *Graph {
	g := NewGraph("Internet2")
	names := []string{
		"Seattle", "SaltLakeCity", "Sunnyvale", "LosAngeles", "Denver",
		"KansasCity", "Houston", "Chicago", "Indianapolis", "Atlanta",
		"WashingtonDC", "NewYork",
	}
	ids := make(map[string]NodeID, len(names))
	for _, n := range names {
		ids[n] = g.AddNode(n, KindBackbone)
	}
	const bw = 10_000 // 10 Gbps OC-192 backbone
	pairs := [][2]string{
		{"Seattle", "Sunnyvale"},
		{"Seattle", "Denver"},
		{"Seattle", "SaltLakeCity"},
		{"SaltLakeCity", "Denver"},
		{"Sunnyvale", "LosAngeles"},
		{"LosAngeles", "Houston"},
		{"Denver", "KansasCity"},
		{"KansasCity", "Houston"},
		{"KansasCity", "Indianapolis"},
		{"Houston", "Atlanta"},
		{"Indianapolis", "Chicago"},
		{"Indianapolis", "Atlanta"},
		{"Chicago", "NewYork"},
		{"Atlanta", "WashingtonDC"},
		{"NewYork", "WashingtonDC"},
	}
	for _, p := range pairs {
		mustLink(g, ids[p[0]], ids[p[1]], bw)
	}
	return g
}

// GEANT returns the 23-node, 37-undirected-link (74 directed) GEANT
// pan-European research network used for the enterprise scenario.
func GEANT() *Graph {
	g := NewGraph("GEANT")
	names := []string{
		"AT", "BE", "CH", "CZ", "DE", "ES", "FR", "GR", "HR", "HU", "IE",
		"IL", "IT", "LU", "NL", "PL", "PT", "SE", "SI", "SK", "UK", "NY", "US",
	}
	ids := make(map[string]NodeID, len(names))
	for _, n := range names {
		ids[n] = g.AddNode(n, KindBackbone)
	}
	const bw = 10_000
	pairs := [][2]string{
		{"DE", "FR"}, {"DE", "NL"}, {"DE", "IT"}, {"DE", "CH"},
		{"DE", "SE"}, {"DE", "PL"}, {"DE", "CZ"}, {"DE", "AT"},
		{"FR", "UK"}, {"FR", "CH"}, {"FR", "ES"}, {"FR", "BE"}, {"FR", "LU"},
		{"UK", "NL"}, {"UK", "IE"}, {"UK", "SE"}, {"UK", "NY"},
		{"NL", "BE"}, {"NL", "NY"},
		{"IT", "CH"}, {"IT", "GR"}, {"IT", "AT"}, {"IT", "IL"},
		{"ES", "PT"}, {"ES", "IT"},
		{"AT", "HU"}, {"AT", "SI"}, {"AT", "CZ"}, {"AT", "SK"},
		{"HU", "HR"}, {"HU", "SK"},
		{"HR", "SI"},
		{"CZ", "SK"}, {"CZ", "PL"},
		{"SE", "PL"},
		{"NY", "US"},
		{"LU", "BE"},
	}
	for _, p := range pairs {
		mustLink(g, ids[p[0]], ids[p[1]], bw)
	}
	return g
}

// UNIV1 returns the 23-node, 43-link two-tier campus data-center fabric:
// 2 core switches, 21 edge switches, every edge dual-homed to both cores
// plus one core-core link. Edge-to-edge traffic has two equal-cost paths,
// which is what makes the tagging scheme's TCAM savings largest on this
// topology (Fig 10).
func UNIV1() *Graph {
	g := NewGraph("UNIV1")
	const (
		coreBW = 10_000
		edgeBW = 1_000
	)
	c1 := g.AddNode("core-1", KindCore)
	c2 := g.AddNode("core-2", KindCore)
	mustLink(g, c1, c2, coreBW)
	for i := 1; i <= 21; i++ {
		e := g.AddNode(fmt.Sprintf("edge-%d", i), KindEdge)
		mustLink(g, e, c1, edgeBW)
		mustLink(g, e, c2, edgeBW)
	}
	return g
}

// AS3679 returns a 79-node, 147-link router-level ISP topology synthesized
// with a preferential-attachment process in the spirit of the Rocketfuel
// AS-3679 map. The construction is deterministic (fixed seed), connected,
// and has the heavy-tailed degree distribution typical of measured ISP
// graphs.
func AS3679() *Graph {
	const (
		n     = 79
		m     = 147
		bw    = 10_000
		seed  = 3679
		extra = m - (n - 1)
	)
	g := NewGraph("AS-3679")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%02d", i), KindBackbone)
	}
	// Phase 1: random preferential-attachment tree guarantees connectivity.
	degree := make([]int, n)
	for v := 1; v < n; v++ {
		// Choose an existing node with probability proportional to
		// degree+1 (the +1 lets leaves attract attachments).
		total := 0
		for u := 0; u < v; u++ {
			total += degree[u] + 1
		}
		pick := rng.Intn(total)
		u := 0
		for ; u < v; u++ {
			pick -= degree[u] + 1
			if pick < 0 {
				break
			}
		}
		mustLink(g, NodeID(u), NodeID(v), bw)
		degree[u]++
		degree[v]++
	}
	// Phase 2: add chords, still preferential, skipping duplicates.
	added := 0
	for added < extra {
		total := 0
		for u := 0; u < n; u++ {
			total += degree[u] + 1
		}
		pickNode := func() int {
			p := rng.Intn(total)
			for u := 0; u < n; u++ {
				p -= degree[u] + 1
				if p < 0 {
					return u
				}
			}
			return n - 1
		}
		a, b := pickNode(), pickNode()
		if a == b {
			continue
		}
		if err := g.AddLink(NodeID(a), NodeID(b), bw, 1); err != nil {
			continue // duplicate; try again
		}
		degree[a]++
		degree[b]++
		added++
	}
	return g
}

// ByName returns one of the four built-in topologies by its canonical name.
func ByName(name string) (*Graph, error) {
	switch name {
	case "Internet2", "internet2":
		return Internet2(), nil
	case "GEANT", "geant":
		return GEANT(), nil
	case "UNIV1", "univ1":
		return UNIV1(), nil
	case "AS-3679", "as3679", "AS3679":
		return AS3679(), nil
	default:
		return nil, fmt.Errorf("topology: unknown topology %q", name)
	}
}
