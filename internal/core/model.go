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

// This file states the placement program of §IV-D once, in a unit the
// caller picks. x_{h,j}^i is the amount of class h's chain position j
// processed at hop i, counted in units of scale(h) Mbps, and r_h is the
// class's whole rate in that unit, a column pinned by its bounds (σ of
// Eq. (2) is eliminated into prefix sums of x):
//
//	Eq. (4):  Σ_i x_{h,j}^i − r_h = 0          per class and position
//	Eq. (3):  prefix sums of x at j−1 dominate those at j
//	Eq. (5):  Σ scale(h)·x − capacity·q ≤ 0    per (switch, NF)
//	Eq. (6):  per switch, over the q variables only
//
// Engine counts in shares (scale = T_h, r pinned at 1: x is the paper's
// d); IncrementalEngine counts in Mbps (scale = 1, r pinned at the
// snapshot's T_h), which keeps every rate out of the matrix, so a new
// snapshot only moves r's bounds and the previous basis survives. Dantzig
// pricing is not scale-invariant, so the unit stays per engine (DESIGN.md
// §6 has the measurements).
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
	// rVar holds each class's rate column r, in class order.
	rVar []lp.VarID
	qVar map[qKey]lp.VarID
	// qKeys lists qVar's keys in (switch, NF) order, and qObj their
	// objective coefficients.
	qKeys []qKey
	qObj  []float64
}

// newModel plans the model for prob: every class's eligible hops and the
// (switch, NF) keys of the q variables. It then reserves the LP's
// variables, rows and terms, which the plan determines, so the model is
// built without regrowing, and names them on demand from the same plan
// (VariableName, ConstraintName), so the model stores no names.
func newModel(name string, prob *Problem) (*model, error) {
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
	md.reserve()
	md.m.SetNamer(md)
	return md, nil
}

// VariableName names LP column v by the layout buildModel creates: per
// class in class order its rate column r[class] and then its flow
// variables x[class][hop][position], hop by hop; after every class the q
// variables q[switch][nf] in key order. It walks the classes, so it costs
// O(classes) a call; only error text and tests call it.
func (md *model) VariableName(v lp.VarID) string {
	k := int(v)
	for ci, c := range md.prob.Classes {
		if k == 0 {
			return fmt.Sprintf("r[%d]", c.ID)
		}
		n := len(md.hops[ci]) * len(c.Chain)
		if k <= n {
			k--
			return fmt.Sprintf("x[%d][%d][%d]", c.ID, md.hops[ci][k/len(c.Chain)], k%len(c.Chain))
		}
		k -= 1 + n
	}
	if k < len(md.qKeys) {
		return fmt.Sprintf("q[%d][%v]", md.qKeys[k].v, md.qKeys[k].nf)
	}
	return ""
}

// ConstraintName names LP row i by the layout buildModel creates: per
// class in class order its coverage rows full[class][position] and then
// its order rows order[class][hop][position], position by position; then
// the capacity rows cap[switch][nf] in key order; then per switch the
// rows cores[switch] and mem[switch].
func (md *model) ConstraintName(i int) string {
	for ci, c := range md.prob.Classes {
		h, k := len(md.hops[ci]), len(c.Chain)
		if i < k {
			return fmt.Sprintf("full[%d][%d]", c.ID, i)
		}
		i -= k
		n := max(k-1, 0) * h
		if i < n {
			return fmt.Sprintf("order[%d][%d][%d]", c.ID, md.hops[ci][i%h], i/h+1)
		}
		i -= n
	}
	if i < len(md.qKeys) {
		return fmt.Sprintf("cap[%d][%v]", md.qKeys[i].v, md.qKeys[i].nf)
	}
	i -= len(md.qKeys)
	for k, key := range md.qKeys {
		if k > 0 && key.v == md.qKeys[k-1].v {
			continue
		}
		switch i {
		case 0:
			return fmt.Sprintf("cores[%d]", key.v)
		case 1:
			return fmt.Sprintf("mem[%d]", key.v)
		}
		i -= 2
	}
	return ""
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
// a chain of k: a rate variable, h·k flow variables, k coverage rows of
// h+1 terms, and k−1 rounds of h order rows whose prefix sums hold
// 2, 4, …, 2h terms. Per (switch, NF) key: a q variable and a capacity
// row over its flow variables plus q, which covers every flow variable
// once. Per switch: a cores row and a memory row, one term per key each.
func (md *model) reserve() {
	vars, cons, terms, flows := len(md.qKeys)+len(md.prob.Classes), 0, 0, 0
	for ci, c := range md.prob.Classes {
		h, k := len(md.hops[ci]), len(c.Chain)
		flows += h * k
		cons += k + max(k-1, 0)*h
		terms += k*(h+1) + max(k-1, 0)*h*(h+1)
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
// chain position), x[class][hop][position]. The upper bound implied
// by Eq. (4) and non-negativity is left off as redundant.
func (md *model) addFlowVars(ci int) error {
	c := md.prob.Classes[ci]
	for _, i := range md.hops[ci] {
		for j := range c.Chain {
			v, err := md.m.AddVariable("", 0, math.Inf(1), 0)
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
		v, err := md.m.AddVariable("", 0, hi, md.qObj[k])
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
// flow over all eligible hops equals the class's rate column.
func (md *model) addCoverageRows(ci int) error {
	c := md.prob.Classes[ci]
	for j := range c.Chain {
		for _, i := range md.hops[ci] {
			md.m.AddTerm(md.d(ci, i, j), 1)
		}
		md.m.AddTerm(md.rVar[ci], -1)
		if err := md.m.EndConstraint("", lp.EQ, 0); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// addOrderRows adds Eq. (3) for class ci: σ_{j-1}^i ≥ σ_j^i at every
// eligible hop, with σ eliminated into prefix sums of the flow variables.
// The rows are the same in every unit (scaling by a positive unit).
func (md *model) addOrderRows(ci int) error {
	c, hops := md.prob.Classes[ci], md.hops[ci]
	for j := 1; j < len(c.Chain); j++ {
		for hi := range hops {
			for _, k := range hops[:hi+1] {
				md.m.AddTerm(md.d(ci, k, j-1), 1)
				md.m.AddTerm(md.d(ci, k, j), -1)
			}
			if err := md.m.EndConstraint("", lp.GE, 0); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	return nil
}

// addCapacityRows adds Eq. (5): per (v, nf), the load the flow variables
// put on the NF is at most capacity·q. scale is what one unit of a class's
// flow variable weighs in Mbps. Each key's flow terms are
// gathered by a counting sort into one array, in class, hop and position
// order; the q variables are consecutive in key order, so a key's index
// is its q variable's offset from the first.
func (md *model) addCapacityRows(scale func(Class) float64) error {
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
				loads[next[k]] = lp.Term{Var: md.d(ci, i, j), Coef: scale(c)}
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
		if err := md.m.EndConstraint("", lp.LE, 0); err != nil {
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
		if err := md.addResourceRow(md.qKeys[lo:hi], float64(avail.Cores),
			func(s policy.Spec) float64 { return float64(s.Cores) }); err != nil {
			return err
		}
		if err := md.addResourceRow(md.qKeys[lo:hi], float64(avail.MemoryMB),
			func(s policy.Spec) float64 { return float64(s.MemoryMB) }); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// addResourceRow adds Σ use(spec)·q ≤ avail over one switch's keys.
func (md *model) addResourceRow(keys []qKey, avail float64, use func(policy.Spec) float64) error {
	for _, key := range keys {
		spec, err := policy.SpecOf(key.nf)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		md.m.AddTerm(md.qVar[key], use(spec))
	}
	if err := md.m.EndConstraint("", lp.LE, avail); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// shareUnit and mbpsUnit are buildModel's two scales: a flow variable
// counts shares of its class (T_h Mbps each) or Mbps.
func shareUnit(c Class) float64 { return c.RateMbps }
func mbpsUnit(Class) float64    { return 1 }

// buildModel constructs the LP/ILP of §IV-D with flows counted in units of
// scale(h) Mbps. Every rate column is created pinned at 1, which is the
// whole class in the share unit; a caller counting in another unit pins
// r to the rate in that unit. caps optionally adds upper bounds on
// selected q variables (the orientation rescue's switch coloring).
func buildModel(prob *Problem, caps map[qKey]float64, scale func(Class) float64) (*model, error) {
	md, err := newModel("apple-placement", prob)
	if err != nil {
		return nil, err
	}
	md.rVar = make([]lp.VarID, len(prob.Classes))
	for ci := range prob.Classes {
		r, err := md.m.AddVariable("", 1, 1, 0)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		md.rVar[ci] = r
		if err := md.addFlowVars(ci); err != nil {
			return nil, err
		}
	}
	if err := md.addInstanceVars(caps); err != nil {
		return nil, err
	}
	for ci := range prob.Classes {
		if err := md.addCoverageRows(ci); err != nil {
			return nil, err
		}
		if err := md.addOrderRows(ci); err != nil {
			return nil, err
		}
	}
	if err := md.addCapacityRows(scale); err != nil {
		return nil, err
	}
	if err := md.addResourceRows(); err != nil {
		return nil, err
	}
	return md, nil
}

// PlacementModel builds, without solving it, the LP the engines solve for
// prob: Engine.Solve's, in shares, or with parametric set
// IncrementalEngine's, in Mbps with each rate column pinned at the class's
// RateMbps. It also returns the rate columns, in class order. The q
// variables are the model's integer-flagged ones. It exists so the
// solver's differential tests can run on the real placement models from
// outside this package; no engine calls it.
func PlacementModel(prob *Problem, parametric bool) (*lp.Model, []lp.VarID, error) {
	if err := prob.Validate(); err != nil {
		return nil, nil, err
	}
	scale := shareUnit
	if parametric {
		scale = mbpsUnit
	}
	md, err := buildModel(prob, nil, scale)
	if err != nil {
		return nil, nil, err
	}
	if parametric {
		for ci, c := range prob.Classes {
			if err := md.m.SetBounds(md.rVar[ci], c.RateMbps, c.RateMbps); err != nil {
				return nil, nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	return md.m, md.rVar, nil
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
// exactly 1 — which is also what turns flows in any unit into shares. Classes for which active reports false
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
