package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/lp"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// solveObserver is a test seam, nil in production: core's tests point it
// at lp.CheckCertificate so every LP solve either engine makes — cold,
// repair re-solve, snapshot re-solve — is verified optimal while the solver
// still sits on that solve's basis.
var solveObserver func(m *lp.Model, s *lp.Solver, sol *lp.Solution)

// recordSolve feeds one solve's instrumentation into the process-wide
// solver counters, failed solves included. s is the solver that produced
// sol, nil when sol came out of branch-and-bound.
func recordSolve(m *lp.Model, s *lp.Solver, sol *lp.Solution, resolve bool) {
	metrics.LP.RecordSolve(resolve, sol.WarmStarted,
		sol.Phase2Iterations, sol.DualIterations, sol.Phase1Time, sol.Phase2Time)
	if sol.Status == lp.StatusSingular {
		metrics.LP.Singular.Add(1)
	}
	if solveObserver != nil && s != nil && sol.Status == lp.StatusOptimal {
		solveObserver(m, s, sol)
	}
}

// EngineOptions tunes the LP-based Optimization Engine.
type EngineOptions struct {
	// Exact switches to branch-and-bound instead of LP-relaxation
	// rounding. Only practical for small instances; the paper (and this
	// engine by default) uses the relaxation.
	Exact bool
	// MaxAffinityRounds bounds anti-affinity evictions per solve (default
	// defaultAffinityRounds). Each eviction zeroes one q variable and warm
	// re-solves, and can surface new resource violations, so the cap is
	// generous.
	MaxAffinityRounds int
	// MaxVariantSolves bounds the total number of full solves spent on
	// partial-order chain-variant selection (default 16). The first solve
	// always uses every class's canonical chain; the remaining budget is
	// coordinate descent over per-class alternatives.
	MaxVariantSolves int
	// Tracer, when non-nil, journals one lp.solve span per Solve call
	// (end Val: total simplex pivots) plus an lp.resolve event per warm
	// repair re-solve (Val: that re-solve's pivots).
	Tracer *trace.Recorder
}

// The round-and-repair bounds per solve, shared by both engines: resource
// caps, and anti-affinity evictions (Engine's default, which
// EngineOptions.MaxAffinityRounds overrides).
const (
	defaultRepairRounds   = 25
	defaultAffinityRounds = 64
)

// Engine is the LP-relaxation Optimization Engine of §IV-D.
type Engine struct {
	opts EngineOptions
}

// NewEngine creates an engine.
func NewEngine(opts EngineOptions) *Engine {
	if opts.MaxAffinityRounds <= 0 {
		opts.MaxAffinityRounds = defaultAffinityRounds
	}
	if opts.MaxVariantSolves <= 0 {
		opts.MaxVariantSolves = 16
	}
	return &Engine{opts: opts}
}

// Solve runs the Optimization Engine on the problem and returns a
// placement satisfying Eqs. (3)–(8) with objective (1) minimized
// approximately (LP relaxation + rounding) or exactly (Exact option),
// plus the policy-v2 constraint families: anti-affinity pairs are never
// co-located, and classes carrying partial-order alternatives may have a
// cheaper chain variant selected (recorded in Placement.Chains).
func (e *Engine) Solve(prob *Problem) (pl *Placement, err error) {
	start := time.Now()
	iters := 0
	if e.opts.Tracer.Enabled() {
		sp := e.opts.Tracer.Begin(trace.Ev(trace.KindLPSolve).WithVal(int64(len(prob.Classes))))
		defer func() { sp.End(int64(iters), err) }()
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	pl, its, err := e.solveFixed(prob, nil)
	iters += its

	// Joint orientation rescue: an infeasible canonical assignment may
	// need several classes re-oriented and several hosts dedicated at
	// once, which neither the eviction search nor one-class descent can
	// reach (see orientationPlan). The plan's switch coloring is encoded
	// as q caps and its variant assignment applied jointly, as a single
	// candidate solve.
	if err != nil && len(prob.AntiAffinity) > 0 {
		hint, caps := orientationPlan(prob)
		if len(caps) > 0 || len(hint) > 0 {
			work := cloneClasses(prob)
			for ci := range work.Classes {
				if ch, ok := hint[work.Classes[ci].ID]; ok {
					work.Classes[ci].Chain = ch.Clone()
				}
			}
			cand, its, cerr := e.solveFixed(work, caps)
			iters += its
			if cerr == nil {
				pl, err = cand, nil
				if len(hint) > 0 {
					pl.Chains = hint
				}
			}
		}
	}

	// Chain-variant selection: coordinate descent over each class's
	// partial-order alternatives. Every candidate is a full solve of the
	// problem with that one chain swapped (the distribution axes follow
	// the chain, so nothing smaller is sound). A variant is adopted only
	// on a strictly lower objective — so the canonical linearization wins
	// all ties and the classic no-alternatives problem never re-solves —
	// or when the incumbent chain assignment is infeasible (a linearization
	// can conflict with anti-affinity or path resources where a sibling
	// order does not).
	budget := e.opts.MaxVariantSolves - 1
	if budget > 0 && hasAlternatives(prob) {
		work := cloneClasses(prob)
		chosen := make(map[ClassID]policy.Chain)
		for ci := range work.Classes {
			if len(work.Classes[ci].AltChains) == 0 {
				continue
			}
			for _, alt := range work.Classes[ci].AltChains {
				if budget <= 0 {
					break
				}
				prev := work.Classes[ci].Chain
				work.Classes[ci].Chain = alt.Clone()
				cand, its, cerr := e.solveFixed(work, nil)
				budget--
				iters += its
				if cerr != nil {
					work.Classes[ci].Chain = prev
					continue
				}
				if err != nil || cand.Objective < pl.Objective {
					pl, err = cand, nil
					chosen[work.Classes[ci].ID] = alt.Clone()
				} else {
					work.Classes[ci].Chain = prev
				}
			}
		}
		if err == nil && len(chosen) > 0 {
			pl.Chains = chosen
		}
	}
	if err != nil {
		return nil, err
	}
	pl.SolveTime = time.Since(start)
	pl.Iterations = iters
	return pl, nil
}

// hasAlternatives reports whether any class carries chain alternatives.
func hasAlternatives(prob *Problem) bool {
	for _, c := range prob.Classes {
		if len(c.AltChains) > 0 {
			return true
		}
	}
	return false
}

// cloneClasses returns a shallow problem copy with its own Classes slice,
// so variant selection can swap chains without mutating the caller's
// problem.
func cloneClasses(p *Problem) *Problem {
	cp := *p
	cp.Classes = make([]Class, len(p.Classes))
	copy(cp.Classes, p.Classes)
	return &cp
}

// solveFixed solves the problem with every class's chain fixed. caps,
// when non-nil, seeds upper bounds on selected q variables (the
// orientation rescue's switch coloring). It returns the placement
// (without SolveTime) and the simplex pivots spent.
func (e *Engine) solveFixed(prob *Problem, caps map[qKey]float64) (*Placement, int, error) {
	md, err := buildModel(prob, caps, shareUnit)
	if err != nil {
		return nil, 0, err
	}
	return e.solveModel(md)
}

// solveModel solves a built model: the LP relaxation plus the shared
// round-and-repair tail (resource violations, then anti-affinity
// co-locations), or branch-and-bound with co-location exclusions under the
// Exact option.
func (e *Engine) solveModel(md *model) (*Placement, int, error) {
	if e.opts.Exact {
		sol, err := lp.SolveMILP(md.m, lp.MILPOptions{Exclusions: exclusionPairs(md)})
		if err != nil {
			return nil, 0, fmt.Errorf("core: optimization failed: %w", err)
		}
		recordSolve(md.m, nil, &sol, false)
		pl := &Placement{
			Counts:     extractCounts(md, &sol, false),
			Dist:       extractDist(md, &sol, nil),
			Iterations: sol.Iterations,
			Method:     "branch-and-bound",
		}
		pl.Objective = pl.TotalInstances()
		return pl, sol.Iterations, nil
	}
	solver := lp.NewSolver(md.m)
	sol, err := solver.Solve()
	recordSolve(md.m, solver, &sol, false)
	if err != nil {
		return nil, 0, fmt.Errorf("core: optimization failed: %w", err)
	}
	r := &repairer{
		md: md, solver: solver,
		maxEvicts: e.opts.MaxAffinityRounds,
		tracer:    e.opts.Tracer,
	}
	pl, err := r.place(sol, nil)
	iters := sol.Iterations + r.iters
	if err != nil {
		return nil, iters, err
	}
	pl.Iterations, pl.Method = iters, "lp-relaxation"
	return pl, iters, nil
}

// errRepairAbort marks solver failures that must terminate the repair
// search outright (anything but an infeasible subproblem).
var errRepairAbort = errors.New("core: repair aborted")

// repairer runs the round-and-repair search over a rounded LP solution.
// Resource violations cap an offender at one fewer instance and re-solve
// (the classic cutting-plane-style loop); anti-affinity co-locations evict
// one side of the pair entirely (cap its q at zero, so the LP reroutes
// that processing to other hops). Capping the wrong NF can make the LP —
// or a later violation at another switch — infeasible, so choices are
// explored depth-first with backtracking: each applied cap is undone when
// its subtree dead-ends and the next candidate is tried. A cap only
// tightens one q upper bound, so every re-solve warm-starts from the
// previous optimal basis (dual simplex) instead of rebuilding the model;
// the solver falls back to a cold solve on its own when the warm start is
// rejected. Without anti-affinity pairs the search is the classic linear
// repair loop (same candidate order, same caps, same re-solves) whenever
// no accepted cap dead-ends further down.
//
// Engine and IncrementalEngine both run this one search, through place; it
// leaves the solver at the accepted leaf, so the incremental engine's next
// snapshot warm-starts from the repaired basis.
type repairer struct {
	md        *model
	solver    *lp.Solver
	maxEvicts int // anti-affinity evictions allowed
	tracer    *trace.Recorder

	sol       lp.Solution // solution at the accepted leaf
	iters     int         // pivots over all re-solves; dualIters is the dual share
	dualIters int
	rounds    int // resource caps applied (monotone across backtracking)
	evicts    int // anti-affinity evictions attempted (monotone)
}

// place is the relaxation tail both engines run on a solved relaxation:
// round and repair it, then read the placement of the classes active
// admits (nil: every class) off the accepted leaf. The caller sets
// Iterations, Method and SolveTime; r's counters hold the search's pivots
// and caps, also on error.
func (r *repairer) place(sol lp.Solution, active func(Class) bool) (*Placement, error) {
	counts, err := r.repair(sol)
	if err != nil {
		return nil, err
	}
	pl := &Placement{Counts: counts, Dist: extractDist(r.md, &r.sol, active)}
	pl.Objective = pl.TotalInstances()
	return pl, nil
}

func (r *repairer) repair(sol lp.Solution) (map[topology.NodeID]map[policy.NF]int, error) {
	counts := extractCounts(r.md, &sol, true)
	if violSwitch, ok := findViolatedSwitch(r.md.prob, counts); ok {
		if r.rounds >= defaultRepairRounds {
			return nil, fmt.Errorf("core: could not repair resource violation at switch %d after %d rounds",
				violSwitch, r.rounds)
		}
		r.rounds++
		var lastErr error
		for _, key := range repairCandidates(violSwitch, counts) {
			newCap := float64(counts[key.v][key.nf] - 1)
			if newCap < 0 {
				continue
			}
			final, err := r.descend(sol, key, newCap, violSwitch)
			if err == nil {
				return final, nil
			}
			if errors.Is(err, errRepairAbort) {
				return nil, err
			}
			lastErr = err
		}
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("core: irreparable resource violation at switch %d", violSwitch)
	}
	violSwitch, pair, ok := findColocatedPair(r.md.prob, counts)
	if !ok {
		r.sol = sol
		return counts, nil
	}
	if r.evicts >= r.maxEvicts {
		return nil, fmt.Errorf("core: could not separate anti-affine pair %v at switch %d after %d evictions",
			pair, violSwitch, r.evicts)
	}
	for _, nf := range evictionOrder(pair, counts[violSwitch]) {
		r.evicts++
		final, err := r.descend(sol, qKey{v: violSwitch, nf: nf}, 0, violSwitch)
		if err == nil {
			return final, nil
		}
		if errors.Is(err, errRepairAbort) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: anti-affine pair %v cannot be separated at switch %d (both evictions dead-end)",
		pair, violSwitch)
}

// descend applies one cap, re-solves, and recurses; the cap is restored
// before returning an error so the caller can try its next candidate.
func (r *repairer) descend(sol lp.Solution, key qKey, newCap float64, violSwitch topology.NodeID) (map[topology.NodeID]map[policy.NF]int, error) {
	qv := r.md.qVar[key]
	_, prevCap, err := r.md.m.Bounds(qv)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, err)
	}
	if err := r.solver.SetUpper(qv, newCap); err != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, err)
	}
	sol2, err := r.solver.ReSolve()
	recordSolve(r.md.m, r.solver, &sol2, true)
	r.iters += sol2.Iterations
	r.dualIters += sol2.DualIterations
	if r.tracer.Enabled() {
		r.tracer.Emit(trace.Ev(trace.KindLPResolve).
			WithNode(int64(violSwitch)).
			WithVal(int64(sol2.TotalPivots())).
			WithErr(err))
	}
	if err == nil {
		final, rerr := r.repair(sol2)
		if rerr == nil {
			return final, nil
		}
		err = rerr
	} else if !errors.Is(err, lp.ErrInfeasible) {
		err = fmt.Errorf("%w: repair re-solve failed: %v", errRepairAbort, err)
	} else {
		err = fmt.Errorf("core: %w at switch %d", lp.ErrInfeasible, violSwitch)
	}
	// Dead end (infeasible here, or deeper in the subtree): undo the cap.
	if uerr := r.solver.SetUpper(qv, prevCap); uerr != nil {
		return nil, fmt.Errorf("%w: %v", errRepairAbort, uerr)
	}
	return nil, err
}

// findViolatedSwitch returns the lowest-ID switch whose rounded instance
// counts exceed its resources (Eq. 6).
func findViolatedSwitch(prob *Problem, counts map[topology.NodeID]map[policy.NF]int) (topology.NodeID, bool) {
	switches := make([]topology.NodeID, 0, len(counts))
	for v := range counts {
		switches = append(switches, v)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	for _, v := range switches {
		var used policy.Resources
		for nf, q := range counts[v] {
			spec, err := policy.SpecOf(nf)
			if err != nil {
				continue
			}
			for k := 0; k < q; k++ {
				used = used.Add(spec.Resources())
			}
		}
		if avail, ok := prob.Avail[v]; ok && !used.Fits(avail) {
			return v, true
		}
	}
	return 0, false
}

// repairCandidates orders the (v,nf) pairs at a violated switch for
// capping: largest core footprint first (freeing the most pressure per
// capped instance), NF order as the deterministic tie break.
func repairCandidates(v topology.NodeID, counts map[topology.NodeID]map[policy.NF]int) []qKey {
	out := make([]qKey, 0, len(counts[v]))
	for nf, q := range counts[v] {
		if q > 0 {
			out = append(out, qKey{v: v, nf: nf})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, erri := policy.SpecOf(out[i].nf)
		sj, errj := policy.SpecOf(out[j].nf)
		if erri != nil || errj != nil {
			return out[i].nf < out[j].nf
		}
		if si.Cores != sj.Cores {
			return si.Cores > sj.Cores
		}
		return out[i].nf < out[j].nf
	})
	return out
}

// findColocatedPair returns the lowest-ID switch where any anti-affinity
// pair has instances of both types, plus the first offending pair at that
// switch (pairs scanned in the problem's declared order).
func findColocatedPair(prob *Problem, counts map[topology.NodeID]map[policy.NF]int) (topology.NodeID, policy.NFPair, bool) {
	if len(prob.AntiAffinity) == 0 {
		return 0, policy.NFPair{}, false
	}
	switches := make([]topology.NodeID, 0, len(counts))
	for v := range counts {
		switches = append(switches, v)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	for _, v := range switches {
		for _, pr := range prob.AntiAffinity {
			if counts[v][pr.A] > 0 && counts[v][pr.B] > 0 {
				return v, pr, true
			}
		}
	}
	return 0, policy.NFPair{}, false
}

// evictionOrder orders the two NFs of a co-located pair for eviction:
// fewer instances at the switch first (moving less load), NF order as the
// deterministic tie break.
func evictionOrder(pair policy.NFPair, at map[policy.NF]int) []policy.NF {
	if at[pair.B] < at[pair.A] {
		return []policy.NF{pair.B, pair.A}
	}
	return []policy.NF{pair.A, pair.B}
}

// exclusionPairs maps the problem's anti-affinity pairs onto the model's q
// variables: one (q_a, q_b) exclusion per switch where both types could be
// placed, in deterministic (switch, pair) order, for MILP branching.
func exclusionPairs(md *model) [][2]lp.VarID {
	if len(md.prob.AntiAffinity) == 0 {
		return nil
	}
	var ordered []topology.NodeID
	for _, key := range md.qKeys { // sorted by switch first
		if len(ordered) == 0 || ordered[len(ordered)-1] != key.v {
			ordered = append(ordered, key.v)
		}
	}
	var out [][2]lp.VarID
	for _, v := range ordered {
		for _, pr := range md.prob.AntiAffinity {
			qa, oka := md.qVar[qKey{v: v, nf: pr.A}]
			qb, okb := md.qVar[qKey{v: v, nf: pr.B}]
			if oka && okb {
				out = append(out, [2]lp.VarID{qa, qb})
			}
		}
	}
	return out
}
