package topology

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestBuiltinCountsMatchTableV(t *testing.T) {
	tests := []struct {
		build        func() *Graph
		name         string
		nodes, links int
	}{
		{Internet2, "Internet2", 12, 15},
		{GEANT, "GEANT", 23, 37}, // 74 directed links in the TOTEM dataset
		{UNIV1, "UNIV1", 23, 43},
		{AS3679, "AS-3679", 79, 147},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if g.Name() != tc.name {
				t.Errorf("Name = %q, want %q", g.Name(), tc.name)
			}
			if g.NumNodes() != tc.nodes {
				t.Errorf("nodes = %d, want %d", g.NumNodes(), tc.nodes)
			}
			if g.NumLinks() != tc.links {
				t.Errorf("links = %d, want %d", g.NumLinks(), tc.links)
			}
			if !g.Connected() {
				t.Error("graph is disconnected")
			}
		})
	}
}

func TestAS3679IsDeterministic(t *testing.T) {
	a, b := AS3679(), AS3679()
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Internet2", "geant", "UNIV1", "as3679"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode("a", KindEdge)
	b := g.AddNode("b", KindEdge)
	if err := g.AddLink(a, a, 10, 1); err == nil {
		t.Error("self loop should fail")
	}
	if err := g.AddLink(a, 99, 10, 1); err == nil {
		t.Error("unknown node should fail")
	}
	if err := g.AddLink(a, b, 0, 1); err == nil {
		t.Error("zero capacity should fail")
	}
	if err := g.AddLink(a, b, 10, 0); err == nil {
		t.Error("zero weight should fail")
	}
	if err := g.AddLink(a, b, 10, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := g.AddLink(b, a, 10, 1); err == nil {
		t.Error("duplicate link should fail")
	}
}

func TestLookupAndNode(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode("sw1", KindCore)
	if id, ok := g.Lookup("sw1"); !ok || id != a {
		t.Fatalf("Lookup = %v, %v", id, ok)
	}
	if _, ok := g.Lookup("missing"); ok {
		t.Fatal("Lookup of missing name succeeded")
	}
	n, err := g.Node(a)
	if err != nil || n.Name != "sw1" || n.Kind != KindCore {
		t.Fatalf("Node = %+v, %v", n, err)
	}
	if _, err := g.Node(42); err == nil {
		t.Fatal("Node(42) should fail")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := NewGraph("line")
	var ids []NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, g.AddNode("n", KindEdge))
	}
	for i := 1; i < 5; i++ {
		if err := g.AddLink(ids[i-1], ids[i], 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.ShortestPath(ids[0], ids[4])
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if len(p) != 5 || p[0] != ids[0] || p[4] != ids[4] {
		t.Fatalf("path = %v", p)
	}
	w, err := g.PathWeight(p)
	if err != nil || w != 4 {
		t.Fatalf("PathWeight = %v, %v", w, err)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := UNIV1()
	p, err := g.ShortestPath(0, 0)
	if err != nil || len(p) != 1 || p[0] != 0 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := NewGraph("disc")
	a := g.AddNode("a", KindEdge)
	b := g.AddNode("b", KindEdge)
	if _, err := g.ShortestPath(a, b); err == nil {
		t.Fatal("path between disconnected nodes should fail")
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	if _, err := g.Diameter(); err == nil {
		t.Fatal("Diameter of disconnected graph should fail")
	}
}

func TestECMPInUNIV1(t *testing.T) {
	g := UNIV1()
	e1, _ := g.Lookup("edge-1")
	e2, _ := g.Lookup("edge-2")
	paths, err := g.AllShortestPaths(e1, e2, 0)
	if err != nil {
		t.Fatalf("AllShortestPaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("edge-to-edge ECMP paths = %d, want 2 (via each core)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 {
			t.Fatalf("path %v should have 3 hops", p)
		}
		mid, err := g.Node(p[1])
		if err != nil || mid.Kind != KindCore {
			t.Fatalf("middle hop %v is not a core switch", p[1])
		}
	}
}

func TestAllShortestPathsCap(t *testing.T) {
	g := UNIV1()
	e1, _ := g.Lookup("edge-1")
	e2, _ := g.Lookup("edge-2")
	paths, err := g.AllShortestPaths(e1, e2, 1)
	if err != nil || len(paths) != 1 {
		t.Fatalf("capped paths = %v, %v", paths, err)
	}
}

// TestShortestPathIsOptimal cross-checks Dijkstra against brute-force DFS
// enumeration on the small Internet2 graph.
// TestPathsFromTieBreak: one source's tree gives, for every destination,
// the shortest path whose predecessors are the lowest-ID ones, read back
// from the destination: of the ECMP set, the path that is least reversed.
// Each path comes in a slice of exactly its length. The four paper
// topologies carry many equal-cost ties (UNIV1's two tiers above all).
func TestPathsFromTieBreak(t *testing.T) {
	for _, g := range []*Graph{Internet2(), GEANT(), UNIV1(), AS3679()} {
		for s := 0; s < g.NumNodes(); s++ {
			tree, err := g.PathsFrom(NodeID(s))
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < g.NumNodes(); d++ {
				got, err := tree.To(NodeID(d))
				if err != nil {
					t.Fatalf("%s: To(%d) from %d: %v", g.Name(), d, s, err)
				}
				all, err := g.AllShortestPaths(NodeID(s), NodeID(d), 0)
				if err != nil {
					t.Fatal(err)
				}
				var want []NodeID
				for _, p := range all {
					r := slices.Clone(p)
					slices.Reverse(r)
					if want == nil || slices.Compare(r, want) < 0 {
						want = r
					}
				}
				slices.Reverse(want)
				if !slices.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("%s: %d -> %d: tree path %v (cap %d), want %v", g.Name(), s, d, got, cap(got), want)
				}
			}
		}
	}
	g := NewGraph("disc")
	a := g.AddNode("a", KindEdge)
	b := g.AddNode("b", KindEdge)
	if _, err := g.PathsFrom(7); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("PathsFrom(unknown) = %v, want ErrUnknownNode", err)
	}
	tree, err := g.PathsFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.To(b); !errors.Is(err, ErrNoPath) {
		t.Fatalf("To(disconnected) = %v, want ErrNoPath", err)
	}
	if _, err := tree.To(-1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("To(-1) = %v, want ErrUnknownNode", err)
	}
}

func TestShortestPathIsOptimal(t *testing.T) {
	g := Internet2()
	n := g.NumNodes()
	bruteBest := func(src, dst NodeID) float64 {
		best := 1e18
		visited := make([]bool, n)
		var dfs func(u NodeID, w float64)
		dfs = func(u NodeID, w float64) {
			if w >= best {
				return
			}
			if u == dst {
				best = w
				return
			}
			visited[u] = true
			nbrs, err := g.Neighbors(u)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range nbrs {
				if !visited[v] {
					dfs(v, w+1)
				}
			}
			visited[u] = false
		}
		dfs(src, 0)
		return best
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p, err := g.ShortestPath(NodeID(s), NodeID(d))
			if err != nil {
				t.Fatalf("ShortestPath(%d,%d): %v", s, d, err)
			}
			got, err := g.PathWeight(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteBest(NodeID(s), NodeID(d)); got != want {
				t.Fatalf("ShortestPath(%d,%d) weight = %v, brute force = %v", s, d, got, want)
			}
		}
	}
}

// TestAllShortestPathsAreShortest: every ECMP path has the same weight as
// the single shortest path, on random graphs.
func TestAllShortestPathsAreShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := NewGraph("rand")
		n := 8 + rng.Intn(8)
		for i := 0; i < n; i++ {
			g.AddNode("n", KindEdge)
		}
		for i := 1; i < n; i++ {
			if err := g.AddLink(NodeID(rng.Intn(i)), NodeID(i), 10, 1); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < n; k++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			_ = g.AddLink(a, b, 10, 1) // duplicates fine to skip
		}
		src, dst := NodeID(0), NodeID(n-1)
		sp, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.PathWeight(sp)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := g.AllShortestPaths(src, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("no ECMP paths")
		}
		for _, p := range paths {
			w, err := g.PathWeight(p)
			if err != nil {
				t.Fatal(err)
			}
			if w != want {
				t.Fatalf("ECMP path %v weight %v != shortest %v", p, w, want)
			}
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("path endpoints wrong: %v", p)
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	g := UNIV1()
	d, err := g.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if d != 2 {
		t.Fatalf("UNIV1 diameter = %d, want 2", d)
	}
	g2 := Internet2()
	d2, err := g2.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if d2 < 3 || d2 > 6 {
		t.Fatalf("Internet2 diameter = %d, want a continental 3..6", d2)
	}
}

func TestNodeKindString(t *testing.T) {
	if KindCore.String() != "core" || KindEdge.String() != "edge" || KindBackbone.String() != "backbone" {
		t.Fatal("kind names wrong")
	}
	if NodeKind(0).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestNodesLinksAreCopies(t *testing.T) {
	g := Internet2()
	nodes := g.Nodes()
	nodes[0].Name = "mutated"
	if n, _ := g.Node(0); n.Name == "mutated" {
		t.Fatal("Nodes leaked internal slice")
	}
	links := g.Links()
	links[0].Weight = 99
	if g.Links()[0].Weight == 99 {
		t.Fatal("Links leaked internal slice")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := UNIV1()
	c1, _ := g.Lookup("core-1")
	d, err := g.Degree(c1)
	if err != nil || d != 22 { // 21 edges + core-2
		t.Fatalf("Degree(core-1) = %d, %v; want 22", d, err)
	}
	nbrs, err := g.Neighbors(c1)
	if err != nil || len(nbrs) != 22 {
		t.Fatalf("Neighbors = %d, %v", len(nbrs), err)
	}
	if _, err := g.Degree(1000); err == nil {
		t.Fatal("Degree of unknown node should fail")
	}
	if _, err := g.Neighbors(-1); err == nil {
		t.Fatal("Neighbors of unknown node should fail")
	}
}
