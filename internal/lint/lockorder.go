package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerLockOrder builds the package-level mutex acquisition graph
// and reports cycles — deadlock prevention for a package that holds two
// of its own mutexes at once, where one goroutine taking A then B while
// another takes them in the opposite order is a hang the -race suites can
// only hit if the scheduler cooperates. No package in the tree nests two
// of its own locks today, so it guards future code only (DESIGN.md §12).
//
// Nodes are lock classes: a mutex field canonicalized to its owning
// type ("assignStore.mu"), or a package-level mutex var ("pkg.tableMu").
// Edges come from the shared lock dataflow (lockstate.go): a direct
// edge when a function acquires B with A held, and an interprocedural
// edge when a function calls, with A held, an in-package function whose
// transitive acquire set (computed over the call summaries to fixpoint)
// contains B. Strongly connected components with more than one class
// are reported once each, at their earliest edge.
//
// Acquisitions inside spawned goroutines seed their own edges but do
// not count as acquired "during" the spawning call — a go statement
// returns immediately.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the package's mutex acquisition graph (including acquisitions via in-package calls) must be cycle-free",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	facts := pass.lockFactsFor()
	sums := pass.summaries()

	// Transitive acquire set per function, to fixpoint over the static
	// in-package call graph.
	acq := make(map[*types.Func]map[string]bool)
	for _, sum := range sums.sorted {
		set := make(map[string]bool)
		if f := facts[sum.decl]; f != nil {
			for class := range f.acquired {
				set[class] = true
			}
		}
		acq[sum.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range sums.sorted {
			set := acq[sum.fn]
			for _, c := range sum.calls {
				for class := range acq[c.fn] {
					if !set[class] {
						set[class] = true
						changed = true
					}
				}
			}
		}
	}

	// Acquisition edges, keeping the earliest site per (from, to).
	type edgeKey struct{ from, to string }
	edges := make(map[edgeKey]token.Pos)
	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		k := edgeKey{from, to}
		if old, ok := edges[k]; !ok || pos < old {
			edges[k] = pos
		}
	}
	for _, sum := range sums.sorted {
		f := facts[sum.decl]
		if f == nil {
			continue
		}
		for _, e := range f.acqEdges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, hc := range f.heldCalls {
			for _, held := range hc.held {
				for class := range acq[hc.callee] {
					addEdge(held, class, hc.pos)
				}
			}
		}
	}
	if len(edges) == 0 {
		return
	}

	succs := make(map[string][]string)
	var nodes []string
	nodeSeen := make(map[string]bool)
	addNode := func(n string) {
		if !nodeSeen[n] {
			nodeSeen[n] = true
			nodes = append(nodes, n)
		}
	}
	for k := range edges {
		addNode(k.from)
		addNode(k.to)
		succs[k.from] = append(succs[k.from], k.to)
	}
	sort.Strings(nodes)
	for n := range succs {
		sort.Strings(succs[n])
	}

	for _, scc := range stronglyConnected(nodes, succs) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		// Report at the earliest edge inside the component.
		var bestKey edgeKey
		bestPos := token.Pos(0)
		for k, pos := range edges {
			if !inSCC[k.from] || !inSCC[k.to] {
				continue
			}
			if bestPos == 0 || pos < bestPos || (pos == bestPos && (k.from+k.to) < (bestKey.from+bestKey.to)) {
				bestPos, bestKey = pos, k
			}
		}
		sorted := append([]string(nil), scc...)
		sort.Strings(sorted)
		pass.Reportf(bestPos,
			"lock acquisition order cycle among {%s}: %s is acquired here while %s is held, and the reverse order exists elsewhere in the package (potential deadlock)",
			joinStrings(sorted, ", "), bestKey.to, bestKey.from)
	}
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}

// stronglyConnected is Tarjan's algorithm over the class graph, with
// deterministic (sorted) node and successor order.
func stronglyConnected(nodes []string, succs map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	var strong func(n string)
	strong = func(n string) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range succs[n] {
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []string
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}
