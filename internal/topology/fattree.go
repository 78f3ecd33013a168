package topology

import "fmt"

// FatTreeLayout is a three-tier k-ary fat-tree (Al-Fares et al.): (k/2)²
// core switches and k pods of k/2 aggregation plus k/2 edge switches.
// It is the scale topology of applebench's fattree_* workloads —
// FatTree(16) has 320 switches, FatTree(32) has 1280 — so the layout
// keeps the structural indices alongside the Graph: shortest paths in a
// fat-tree are a closed form over (pod, index) coordinates, and the
// million-class generators must not pay the O(V²) Dijkstra per class.
type FatTreeLayout struct {
	K     int
	Graph *Graph
	// Core[a*(k/2)+j] is the j-th core switch attached to aggregation
	// index a of every pod.
	Core []NodeID
	// Agg[p][a] / Edge[p][e] are the aggregation and edge switches of
	// pod p.
	Agg  [][]NodeID
	Edge [][]NodeID
}

// FatTree builds the k-ary fat-tree. k must be even and ≥ 4. Link
// capacities model 10 GbE everywhere (the rate units only matter
// relative to class rates).
func FatTree(k int) (*FatTreeLayout, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity %d must be even and ≥4", k)
	}
	half := k / 2
	const bw = 10_000
	g := NewGraph(fmt.Sprintf("FatTree-%d", k))
	l := &FatTreeLayout{K: k, Graph: g}

	l.Core = make([]NodeID, half*half)
	for i := range l.Core {
		l.Core[i] = g.AddNode(fmt.Sprintf("core-%d", i), KindCore)
	}
	l.Agg = make([][]NodeID, k)
	l.Edge = make([][]NodeID, k)
	for p := 0; p < k; p++ {
		l.Agg[p] = make([]NodeID, half)
		l.Edge[p] = make([]NodeID, half)
		for a := 0; a < half; a++ {
			l.Agg[p][a] = g.AddNode(fmt.Sprintf("agg-%d-%d", p, a), KindCore)
		}
		for e := 0; e < half; e++ {
			l.Edge[p][e] = g.AddNode(fmt.Sprintf("edge-%d-%d", p, e), KindEdge)
		}
		// Pod fabric: full bipartite edge↔aggregation.
		for a := 0; a < half; a++ {
			for e := 0; e < half; e++ {
				mustLink(g, l.Agg[p][a], l.Edge[p][e], bw)
			}
		}
	}
	// Core wiring: aggregation switch a of every pod connects to cores
	// [a·k/2, (a+1)·k/2).
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				mustLink(g, l.Core[a*half+j], l.Agg[p][a], bw)
			}
		}
	}
	return l, nil
}

// Path returns a shortest path between two edge switches in closed form.
// h picks deterministically among the equal-cost paths (the fat-tree has
// (k/2)² of them between pods), so callers can spread classes across the
// fabric without ever running a graph search:
//
//	same edge          → [edge]
//	same pod           → edge, agg[h mod k/2], edge'
//	different pods     → edge, agg[a], core[a·k/2+j], agg'[a], edge'
//	                     with a = h mod k/2, j = (h / (k/2)) mod k/2
func (l *FatTreeLayout) Path(srcPod, srcEdge, dstPod, dstEdge, h int) ([]NodeID, error) {
	half := l.K / 2
	if srcPod < 0 || srcPod >= l.K || dstPod < 0 || dstPod >= l.K ||
		srcEdge < 0 || srcEdge >= half || dstEdge < 0 || dstEdge >= half {
		return nil, fmt.Errorf("topology: fat-tree coordinates (%d,%d)→(%d,%d) out of range for k=%d",
			srcPod, srcEdge, dstPod, dstEdge, l.K)
	}
	if h < 0 {
		h = -h
	}
	src, dst := l.Edge[srcPod][srcEdge], l.Edge[dstPod][dstEdge]
	if src == dst {
		return []NodeID{src}, nil
	}
	a := h % half
	if srcPod == dstPod {
		return []NodeID{src, l.Agg[srcPod][a], dst}, nil
	}
	j := (h / half) % half
	core := l.Core[a*half+j]
	return []NodeID{src, l.Agg[srcPod][a], core, l.Agg[dstPod][a], dst}, nil
}
