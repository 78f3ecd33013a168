package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
)

// This file states the placement program of §IV-D once. The two
// production formulations are short compositions of the same steps:
//
//	buildModel            d_{h,j}^i ∈ [0,1], the share of class h's
//	                      position j processed at hop i (σ of Eq. (2)
//	                      eliminated into prefix sums of d)
//	buildParametricModel  x_{h,j}^i = T_h·d_{h,j}^i in Mbps, plus one
//	                      variable r_h per class pinned to T_h by bounds
//
// They share the flow variables, the consolidation bias and q variables
// of Eq. (1), the Eq. (3) order rows and the Eq. (6) resource rows, and
// differ only where the mathematics does: Eq. (4) reads Σ_i d = 1 against
// Σ_i x − r = 0, and Eq. (5)'s flow coefficients are T_h against 1. The
// parametric form keeps every rate out of the matrix, so a new traffic
// snapshot is a change of the r bounds and the previous basis survives.
//
// Nothing here ranges over a map: variables and rows are created in class
// order and in sorted (switch, NF) order, so the column layout — and with
// it every pivot count — is a function of the problem alone.

// qKey identifies a q_n^v variable.
type qKey struct {
	v  topology.NodeID
	nf policy.NF
}

// model carries the problem, its LP model and the variable index maps.
type model struct {
	prob *Problem
	m    *lp.Model
	// hops[classIdx] caches prob.eligibleHops for the class.
	hops [][]int
	// dVar holds the flow variables: class ci's for path index i and chain
	// position j is dVar[dOff[ci]+i*len(chain)+j], -1 where the hop cannot
	// host.
	dVar []lp.VarID
	dOff []int
	qVar map[qKey]lp.VarID
	// qKeys lists qVar's keys in (switch, NF) order, and qObj their
	// objective coefficients.
	qKeys []qKey
	qObj  []float64
}

// newModel plans the model for prob: every class's eligible hops and the
// (switch, NF) keys of the q variables. It then reserves the LP's
// variables, rows and terms, which the plan determines, so the model is
// built without regrowing; rVars adds one rate variable and one coverage
// term per class (the parametric form).
func newModel(name string, prob *Problem, rVars bool) (*model, error) {
	md := &model{
		prob: prob,
		m:    lp.NewModel(name),
		hops: make([][]int, len(prob.Classes)),
		dOff: make([]int, len(prob.Classes)),
	}
	if err := md.planHops(); err != nil {
		return nil, err
	}
	md.planKeys()
	md.reserve(rVars)
	return md, nil
}

// planHops caches every class's eligible hops, all in one array, and lays
// out the flow-variable index.
func (md *model) planHops() error {
	nPath, nDist := 0, 0
	for _, c := range md.prob.Classes {
		nPath += len(c.Path)
		nDist += len(c.Path) * len(c.Chain)
	}
	all := make([]int, 0, nPath)
	for ci, c := range md.prob.Classes {
		lo := len(all)
		all = md.prob.appendEligibleHops(all, c)
		if len(all) == lo {
			return fmt.Errorf("core: class %d has no APPLE host on its path", c.ID)
		}
		md.hops[ci] = all[lo:len(all):len(all)]
	}
	md.dVar = make([]lp.VarID, nDist)
	off := 0
	for ci, c := range md.prob.Classes {
		md.dOff[ci] = off
		off += len(c.Path) * len(c.Chain)
	}
	for k := range md.dVar {
		md.dVar[k] = -1
	}
	return nil
}

// dAt is the index in dVar of class ci's flow variable at path index i
// and chain position j.
func (md *model) dAt(ci, i, j int) int {
	return md.dOff[ci] + i*len(md.prob.Classes[ci].Chain) + j
}

// d returns class ci's flow variable at path index i and chain position j.
func (md *model) d(ci, i, j int) lp.VarID { return md.dVar[md.dAt(ci, i, j)] }

// planKeys lists the (switch, NF) pairs some class could use, in sorted
// key order, with the objective coefficient of each one's q variable.
//
// The pure Σq objective is degenerate — any split of a class's load
// across its path costs the same fractional q, so the LP may scatter
// load, and integer rounding then opens one instance per scattered shard.
// A tiny per-(v,nf) perturbation makes switches with more multiplexable
// demand (total rate of classes passing v and needing nf) strictly
// cheaper, so degenerate optima consolidate. The perturbation is far
// below 1, so the instance total is still minimized first.
func (md *model) planKeys() {
	potential := make(map[qKey]float64)
	maxPotential := 0.0
	for ci, c := range md.prob.Classes {
		for _, i := range md.hops[ci] {
			for _, nf := range c.Chain {
				k := qKey{v: c.Path[i], nf: nf}
				if _, seen := potential[k]; !seen {
					md.qKeys = append(md.qKeys, k)
				}
				potential[k] += c.RateMbps
				maxPotential = math.Max(maxPotential, potential[k])
			}
		}
	}
	sort.Slice(md.qKeys, func(i, j int) bool {
		if md.qKeys[i].v != md.qKeys[j].v {
			return md.qKeys[i].v < md.qKeys[j].v
		}
		return md.qKeys[i].nf < md.qKeys[j].nf
	})
	md.qObj = make([]float64, len(md.qKeys))
	for k, key := range md.qKeys {
		obj := 1.0 // Eq. (1)
		if maxPotential > 0 {
			obj += 1e-3 * (1 - potential[key]/maxPotential)
		}
		md.qObj[k] = obj + 1e-7*float64(key.v) // deterministic tie break
	}
	md.qVar = make(map[qKey]lp.VarID, len(md.qKeys))
}

// reserve sizes the LP from the plan. Per class with h eligible hops and
// a chain of k: h·k flow variables, k coverage rows of h terms (plus the
// rate term), and k−1 rounds of h order rows whose prefix sums hold
// 2, 4, …, 2h terms. Per (switch, NF) key: a q variable and a capacity
// row over its flow variables plus q, which covers every flow variable
// once. Per switch: a cores row and a memory row, one term per key each.
func (md *model) reserve(rVars bool) {
	vars, cons, terms, flows := len(md.qKeys), 0, 0, 0
	for ci, c := range md.prob.Classes {
		h, k := len(md.hops[ci]), len(c.Chain)
		cover := h
		if rVars {
			vars++
			cover++
		}
		flows += h * k
		cons += k + max(k-1, 0)*h
		terms += k*cover + max(k-1, 0)*h*(h+1)
	}
	switches := 0
	for k, key := range md.qKeys {
		if k == 0 || key.v != md.qKeys[k-1].v {
			switches++
		}
	}
	vars += flows
	cons += len(md.qKeys) + 2*switches
	terms += flows + 3*len(md.qKeys)
	md.m.Reserve(vars, cons, terms)
}

// addFlowVars creates class ci's flow variables, one per (eligible hop,
// chain position), named prefix[class][hop][position]. The upper bound
// implied by Eq. (4) and non-negativity is left off as redundant.
func (md *model) addFlowVars(ci int, prefix string) error {
	c := md.prob.Classes[ci]
	for _, i := range md.hops[ci] {
		for j := range c.Chain {
			v, err := md.m.AddVariable(fmt.Sprintf("%s[%d][%d][%d]", prefix, c.ID, i, j), 0, math.Inf(1), 0)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			md.dVar[md.dAt(ci, i, j)] = v
		}
	}
	return nil
}

// addInstanceVars creates the integer q variables of Eq. (1), one per
// planned (switch, NF) key in key order, so their IDs are consecutive;
// caps optionally bounds selected ones from above.
func (md *model) addInstanceVars(caps map[qKey]float64) error {
	for k, key := range md.qKeys {
		hi := math.Inf(1)
		if c, ok := caps[key]; ok {
			hi = c
		}
		v, err := md.m.AddVariable(fmt.Sprintf("q[%d][%v]", key.v, key.nf), 0, hi, md.qObj[k])
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if err := md.m.SetInteger(v); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		md.qVar[key] = v
	}
	return nil
}

// addCoverageRows adds Eq. (4) for class ci: at every chain position the
// flow over all eligible hops, minus the rate variable r when r ≥ 0,
// equals rhs.
func (md *model) addCoverageRows(ci int, rhs float64, r lp.VarID) error {
	c := md.prob.Classes[ci]
	for j := range c.Chain {
		for _, i := range md.hops[ci] {
			md.m.AddTerm(md.d(ci, i, j), 1)
		}
		if r >= 0 {
			md.m.AddTerm(r, -1)
		}
		if err := md.m.EndConstraint(fmt.Sprintf("full[%d][%d]", c.ID, j), lp.EQ, rhs); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// addOrderRows adds Eq. (3) for class ci: σ_{j-1}^i ≥ σ_j^i at every
// eligible hop, with σ eliminated into prefix sums of the flow variables.
// The rows are the same in d and in x (the d form scaled by T_h ≥ 0).
func (md *model) addOrderRows(ci int) error {
	c, hops := md.prob.Classes[ci], md.hops[ci]
	for j := 1; j < len(c.Chain); j++ {
		for hi, i := range hops {
			for _, k := range hops[:hi+1] {
				md.m.AddTerm(md.d(ci, k, j-1), 1)
				md.m.AddTerm(md.d(ci, k, j), -1)
			}
			name := fmt.Sprintf("order[%d][%d][%d]", c.ID, i, j)
			if err := md.m.EndConstraint(name, lp.GE, 0); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	return nil
}

// addCapacityRows adds Eq. (5): per (v, nf), the load the flow variables
// put on the NF is at most capacity·q. flowCoef is what one unit of a
// class's flow variable weighs in Mbps. Each key's flow terms are
// gathered by a counting sort into one array, in class, hop and position
// order; the q variables are consecutive in key order, so a key's index
// is its q variable's offset from the first.
func (md *model) addCapacityRows(flowCoef func(Class) float64) error {
	if len(md.qKeys) == 0 {
		return nil
	}
	q0 := md.qVar[md.qKeys[0]]
	at := make([]int, len(md.qKeys)+1)
	for ci, c := range md.prob.Classes {
		for _, i := range md.hops[ci] {
			for _, nf := range c.Chain {
				at[md.qVar[qKey{v: c.Path[i], nf: nf}]-q0+1]++
			}
		}
	}
	for k := range md.qKeys {
		at[k+1] += at[k]
	}
	loads := make([]lp.Term, at[len(md.qKeys)])
	next := slices.Clone(at[:len(md.qKeys)])
	for ci, c := range md.prob.Classes {
		for _, i := range md.hops[ci] {
			for j, nf := range c.Chain {
				k := md.qVar[qKey{v: c.Path[i], nf: nf}] - q0
				loads[next[k]] = lp.Term{Var: md.d(ci, i, j), Coef: flowCoef(c)}
				next[k]++
			}
		}
	}
	for k, key := range md.qKeys {
		spec, err := policy.SpecOf(key.nf)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		for _, t := range loads[at[k]:at[k+1]] {
			md.m.AddTerm(t.Var, t.Coef)
		}
		md.m.AddTerm(md.qVar[key], -spec.CapacityMbps)
		name := fmt.Sprintf("cap[%d][%v]", key.v, key.nf)
		if err := md.m.EndConstraint(name, lp.LE, 0); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// addResourceRows adds Eq. (6): per switch, in switch order, one row per
// resource dimension over the q variables placed there.
func (md *model) addResourceRows() error {
	for lo := 0; lo < len(md.qKeys); {
		v := md.qKeys[lo].v
		hi := lo
		for hi < len(md.qKeys) && md.qKeys[hi].v == v {
			hi++
		}
		avail := md.prob.Avail[v]
		if err := md.addResourceRow(md.qKeys[lo:hi], fmt.Sprintf("cores[%d]", v), float64(avail.Cores),
			func(s policy.Spec) float64 { return float64(s.Cores) }); err != nil {
			return err
		}
		if err := md.addResourceRow(md.qKeys[lo:hi], fmt.Sprintf("mem[%d]", v), float64(avail.MemoryMB),
			func(s policy.Spec) float64 { return float64(s.MemoryMB) }); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// addResourceRow adds Σ use(spec)·q ≤ avail over one switch's keys.
func (md *model) addResourceRow(keys []qKey, name string, avail float64, use func(policy.Spec) float64) error {
	for _, key := range keys {
		spec, err := policy.SpecOf(key.nf)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		md.m.AddTerm(md.qVar[key], use(spec))
	}
	if err := md.m.EndConstraint(name, lp.LE, avail); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// buildModel constructs the σ-eliminated LP/ILP of §IV-D in the class
// distributions d. caps optionally adds upper bounds on selected q
// variables (the orientation rescue's switch coloring).
func buildModel(prob *Problem, caps map[qKey]float64) (*model, error) {
	md, err := newModel("apple-placement", prob, false)
	if err != nil {
		return nil, err
	}
	for ci := range prob.Classes {
		if err := md.addFlowVars(ci, "d"); err != nil {
			return nil, err
		}
	}
	if err := md.addInstanceVars(caps); err != nil {
		return nil, err
	}
	for ci := range prob.Classes {
		// Eq. (4): every chain position processes 100% of the class.
		if err := md.addCoverageRows(ci, 1, -1); err != nil {
			return nil, err
		}
		if err := md.addOrderRows(ci); err != nil {
			return nil, err
		}
	}
	// Eq. (5): a share d of class h loads the NF with d·T_h.
	if err := md.addCapacityRows(func(c Class) float64 { return c.RateMbps }); err != nil {
		return nil, err
	}
	if err := md.addResourceRows(); err != nil {
		return nil, err
	}
	return md, nil
}

// buildParametricModel constructs the rate-free reformulation described
// on IncrementalEngine: md.dVar holds the absolute flows x, and the
// returned slice maps class index → r variable, whose bounds pin the
// class's rate (initially to its RateMbps).
func buildParametricModel(prob *Problem) (*model, []lp.VarID, error) {
	md, err := newModel("apple-placement-parametric", prob, true)
	if err != nil {
		return nil, nil, err
	}
	rVar := make([]lp.VarID, len(prob.Classes))
	for ci, c := range prob.Classes {
		rv, err := md.m.AddVariable(fmt.Sprintf("r[%d]", c.ID), c.RateMbps, c.RateMbps, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		rVar[ci] = rv
		if err := md.addFlowVars(ci, "x"); err != nil {
			return nil, nil, err
		}
	}
	// The bias is computed once from the universe's base rates and kept
	// across snapshots (see IncrementalEngine).
	if err := md.addInstanceVars(nil); err != nil {
		return nil, nil, err
	}
	for ci := range prob.Classes {
		// Eq. (4): Σ_i x − r = 0 at every chain position.
		if err := md.addCoverageRows(ci, 0, rVar[ci]); err != nil {
			return nil, nil, err
		}
		if err := md.addOrderRows(ci); err != nil {
			return nil, nil, err
		}
	}
	// Eq. (5): x is already in Mbps, so rates never touch the matrix.
	if err := md.addCapacityRows(func(Class) float64 { return 1 }); err != nil {
		return nil, nil, err
	}
	if err := md.addResourceRows(); err != nil {
		return nil, nil, err
	}
	return md, rVar, nil
}

// PlacementModel builds, without solving it, the LP the engines solve for
// prob: the σ-eliminated formulation of Engine.Solve or, with parametric
// set, the rate-free one of IncrementalEngine — in which case it also
// returns each class's rate variable, in class order, whose bounds pin the
// snapshot rate. The q variables are the model's integer-flagged ones. It
// exists so the solver's differential tests can run on the real placement
// models from outside this package; no engine calls it.
func PlacementModel(prob *Problem, parametric bool) (*lp.Model, []lp.VarID, error) {
	if err := prob.Validate(); err != nil {
		return nil, nil, err
	}
	if parametric {
		md, rVar, err := buildParametricModel(prob)
		if err != nil {
			return nil, nil, err
		}
		return md.m, rVar, nil
	}
	md, err := buildModel(prob, nil)
	if err != nil {
		return nil, nil, err
	}
	return md.m, nil, nil
}

// extractCounts reads q values; when roundUp is set, fractional LP values
// are ceiled (the relaxation rounding step).
func extractCounts(md *model, sol *lp.Solution, roundUp bool) map[topology.NodeID]map[policy.NF]int {
	counts := make(map[topology.NodeID]map[policy.NF]int)
	for _, key := range md.qKeys {
		x := sol.Value(md.qVar[key])
		var q int
		if roundUp {
			q = int(math.Ceil(x - 1e-6))
		} else {
			q = int(math.Round(x))
		}
		if q <= 0 {
			continue
		}
		if counts[key.v] == nil {
			counts[key.v] = make(map[policy.NF]int)
		}
		counts[key.v][key.nf] = q
	}
	return counts
}

// extractDist reads the flow values back into per-class distributions,
// cleaning numerical noise and normalizing each chain position to sum to
// exactly 1 — which is also what turns the parametric model's absolute
// flows x back into d = x / rate. Classes for which active reports false
// are omitted; a nil active keeps every class.
func extractDist(md *model, sol *lp.Solution, active func(Class) bool) map[ClassID][][]float64 {
	out := make(map[ClassID][][]float64, len(md.prob.Classes))
	for ci, c := range md.prob.Classes {
		if active != nil && !active(c) {
			continue
		}
		dist := make([][]float64, len(c.Path))
		for i := range c.Path {
			dist[i] = make([]float64, len(c.Chain))
			for j := range c.Chain {
				if v := md.d(ci, i, j); v >= 0 {
					dist[i][j] = math.Max(0, sol.Value(v))
				}
			}
		}
		for j := range c.Chain {
			total := 0.0
			for i := range c.Path {
				total += dist[i][j]
			}
			if total > 0 {
				for i := range c.Path {
					dist[i][j] /= total
				}
			}
		}
		out[c.ID] = dist
	}
	return out
}
