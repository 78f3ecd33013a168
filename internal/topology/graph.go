// Package topology models the networks APPLE runs on: an undirected graph
// of SDN switches with weighted, capacitated links, shortest-path and
// equal-cost multi-path (ECMP) routing, and constructors for the four
// evaluation topologies of the paper (§IX-A): Internet2/Abilene, GEANT,
// the UNIV1 two-tier data center, and the Rocketfuel AS-3679 ISP network.
package topology

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a switch within a Graph. IDs are dense, starting at 0
// in insertion order.
type NodeID int

// NodeKind classifies a switch's role in the topology.
type NodeKind int

// Node kinds. Backbone is used for WAN routers; Core and Edge label the
// tiers of data-center fabrics.
const (
	KindBackbone NodeKind = iota + 1
	KindCore
	KindEdge
)

// String returns the kind's name.
func (k NodeKind) String() string {
	switch k {
	case KindBackbone:
		return "backbone"
	case KindCore:
		return "core"
	case KindEdge:
		return "edge"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a switch in the topology.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Link is an undirected edge between two switches.
type Link struct {
	A, B NodeID
	// CapacityMbps is the link bandwidth in Mbps.
	CapacityMbps float64
	// Weight is the routing metric used by shortest-path computation.
	Weight float64
}

// Errors returned by Graph methods.
var (
	ErrNoPath        = errors.New("topology: no path")
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrSelfLoop      = errors.New("topology: self loop")
	ErrDuplicateLink = errors.New("topology: duplicate link")
)

// Graph is an undirected network topology. The zero value is unusable;
// construct with NewGraph.
type Graph struct {
	name   string
	nodes  []Node
	links  []Link
	adj    [][]adjEntry // adjacency: for each node, (neighbor, link index)
	byName map[string]NodeID
}

type adjEntry struct {
	to   NodeID
	link int
}

// NewGraph creates an empty named graph.
func NewGraph(name string) *Graph {
	return &Graph{name: name, byName: make(map[string]NodeID)}
}

// Name returns the topology name (e.g. "Internet2").
func (g *Graph) Name() string { return g.name }

// AddNode appends a node and returns its ID. Names should be unique; a
// duplicate name is allowed but only the first is found by Lookup.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.adj = append(g.adj, nil)
	if _, ok := g.byName[name]; !ok {
		g.byName[name] = id
	}
	return id
}

// Lookup returns the ID of the first node with the given name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// AddLink adds an undirected link between a and b.
func (g *Graph) AddLink(a, b NodeID, capacityMbps, weight float64) error {
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("%w: link %d-%d", ErrUnknownNode, a, b)
	}
	if a == b {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, a)
	}
	for _, e := range g.adj[a] {
		if e.to == b {
			return fmt.Errorf("%w: %d-%d", ErrDuplicateLink, a, b)
		}
	}
	if capacityMbps <= 0 {
		return fmt.Errorf("topology: non-positive capacity %v on link %d-%d", capacityMbps, a, b)
	}
	if weight <= 0 {
		return fmt.Errorf("topology: non-positive weight %v on link %d-%d", weight, a, b)
	}
	idx := len(g.links)
	g.links = append(g.links, Link{A: a, B: b, CapacityMbps: capacityMbps, Weight: weight})
	g.adj[a] = append(g.adj[a], adjEntry{to: b, link: idx})
	g.adj[b] = append(g.adj[b], adjEntry{to: a, link: idx})
	return nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the undirected link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Nodes returns a copy of the node list.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.valid(id) {
		return Node{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return g.nodes[id], nil
}

// Links returns a copy of the link list.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Degree returns the number of links incident to n.
func (g *Graph) Degree(n NodeID) (int, error) {
	if !g.valid(n) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	return len(g.adj[n]), nil
}

// Neighbors returns the IDs adjacent to n, in insertion order.
func (g *Graph) Neighbors(n NodeID) ([]NodeID, error) {
	if !g.valid(n) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	out := make([]NodeID, len(g.adj[n]))
	for i, e := range g.adj[n] {
		out[i] = e.to
	}
	return out, nil
}

// Connected reports whether the graph is connected (vacuously true when
// empty).
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[n] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == len(g.nodes)
}

// ShortestPath returns one minimum-weight path from src to dst as a node
// sequence including both endpoints. Ties are broken deterministically by
// preferring the lower predecessor ID. It is PathsFrom(src).To(dst); a
// caller routing several destinations from one source builds the tree once.
func (g *Graph) ShortestPath(src, dst NodeID) ([]NodeID, error) {
	tree, err := g.PathsFrom(src)
	if err != nil {
		return nil, err
	}
	return tree.To(dst)
}

// Paths is the shortest-path tree of one source: every node's
// minimum-weight path from it, by predecessor.
type Paths struct {
	src  NodeID
	dist []float64
	pred []NodeID
}

// PathsFrom computes src's shortest-path tree, with ShortestPath's
// lowest-predecessor tie break.
func (g *Graph) PathsFrom(src NodeID) (Paths, error) {
	dist, pred, err := g.dijkstra(src)
	if err != nil {
		return Paths{}, err
	}
	return Paths{src: src, dist: dist, pred: pred}, nil
}

// To returns the tree's path from its source to dst, both endpoints
// included, in a slice of exactly the path's length.
func (p Paths) To(dst NodeID) ([]NodeID, error) {
	if dst < 0 || int(dst) >= len(p.dist) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	if math.IsInf(p.dist[dst], 1) {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoPath, p.src, dst)
	}
	hops := 1
	for n := dst; n != p.src; n = p.pred[n] {
		hops++
	}
	out := make([]NodeID, hops)
	for n, i := dst, hops-1; i >= 0; n, i = p.pred[n], i-1 {
		out[i] = n
	}
	return out, nil
}

// dijkstra computes single-source shortest paths by link weight, with a
// deterministic lowest-ID tie break on predecessors.
func (g *Graph) dijkstra(src NodeID) (dist []float64, pred []NodeID, err error) {
	if !g.valid(src) {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, src)
	}
	n := len(g.nodes)
	dist = make([]float64, n)
	pred = make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		pred[i] = -1
	}
	dist[src] = 0
	// Simple O(V^2) scan: topologies here have at most a few hundred nodes
	// and this avoids heap bookkeeping entirely.
	for iter := 0; iter < n; iter++ {
		u := NodeID(-1)
		best := math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best = dist[v]
				u = NodeID(v)
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range g.adj[u] {
			d := dist[u] + g.links[e.link].Weight
			if d < dist[e.to] || (d == dist[e.to] && pred[e.to] > u) {
				dist[e.to] = d
				pred[e.to] = u
			}
		}
	}
	return dist, pred, nil
}

// AllShortestPaths enumerates every minimum-weight path from src to dst
// (ECMP set), each as a node sequence. The result is sorted
// lexicographically for determinism. maxPaths caps the enumeration; pass 0
// for no cap.
func (g *Graph) AllShortestPaths(src, dst NodeID, maxPaths int) ([][]NodeID, error) {
	dist, _, err := g.dijkstra(src)
	if err != nil {
		return nil, err
	}
	if !g.valid(dst) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	if math.IsInf(dist[dst], 1) {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
	}
	var out [][]NodeID
	var path []NodeID
	var walk func(u NodeID)
	walk = func(u NodeID) {
		if maxPaths > 0 && len(out) >= maxPaths {
			return
		}
		path = append(path, u)
		if u == src {
			p := make([]NodeID, len(path))
			for i := range path {
				p[i] = path[len(path)-1-i]
			}
			out = append(out, p)
		} else {
			for _, e := range g.adj[u] {
				w := g.links[e.link].Weight
				if dist[e.to]+w == dist[u] {
					walk(e.to)
				}
			}
		}
		path = path[:len(path)-1]
	}
	walk(dst)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out, nil
}

// PathWeight returns the total weight of a node path, validating that each
// hop is an existing link.
func (g *Graph) PathWeight(path []NodeID) (float64, error) {
	total := 0.0
	for i := 1; i < len(path); i++ {
		l, err := g.linkBetween(path[i-1], path[i])
		if err != nil {
			return 0, err
		}
		total += l.Weight
	}
	return total, nil
}

func (g *Graph) linkBetween(a, b NodeID) (Link, error) {
	if !g.valid(a) || !g.valid(b) {
		return Link{}, fmt.Errorf("%w: %d-%d", ErrUnknownNode, a, b)
	}
	for _, e := range g.adj[a] {
		if e.to == b {
			return g.links[e.link], nil
		}
	}
	return Link{}, fmt.Errorf("%w: no link %d-%d", ErrNoPath, a, b)
}

// Diameter returns the maximum over node pairs of shortest-path hop count.
// It returns an error if the graph is disconnected or empty.
func (g *Graph) Diameter() (int, error) {
	if len(g.nodes) == 0 {
		return 0, errors.New("topology: empty graph")
	}
	maxHops := 0
	for s := 0; s < len(g.nodes); s++ {
		// BFS by hops.
		distH := make([]int, len(g.nodes))
		for i := range distH {
			distH[i] = -1
		}
		distH[s] = 0
		queue := []NodeID{NodeID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.adj[u] {
				if distH[e.to] < 0 {
					distH[e.to] = distH[u] + 1
					if distH[e.to] > maxHops {
						maxHops = distH[e.to]
					}
					queue = append(queue, e.to)
				}
			}
		}
		for _, d := range distH {
			if d < 0 {
				return 0, errors.New("topology: graph is disconnected")
			}
		}
	}
	return maxHops, nil
}
