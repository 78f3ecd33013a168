package experiments

// Policy-hierarchy evaluation: compile each scenario's drawn chains
// through the hierarchical policy machine, enforce a pairwise
// anti-affinity exclusion, and audit the result end to end — the solve
// must separate every excluded pair on every host, and the installed data
// plane must pass the controller's invariant and shadow-table audits.
// This is the interference-freedom claim of the policy engine: adding
// placement exclusions never compromises enforcement correctness.

import (
	"errors"
	"fmt"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// DefaultAntiAffinity is the paper-style exclusion used across the
// evaluation: an IDS and a Proxy must not share an APPLE host (a noisy
// DPI neighbour next to a latency-sensitive terminating NF).
func DefaultAntiAffinity() []policy.NFPair {
	p, err := policy.NewNFPair(policy.IDS, policy.Proxy)
	if err != nil {
		panic(err) // static catalogue NFs; cannot fail
	}
	return []policy.NFPair{p}
}

// auditTenant is the tenant every mean-problem class is filed under when
// the scenario's flat chains are rebuilt as a policy hierarchy.
const auditTenant = "mean"

// auditMaxClasses caps the audited problem's class count (§IV-A's class
// aggregation knob). Whether a global exclusion is satisfiable at all
// depends on the drawn workload: dense draws contain parity traps — an
// even-length chain of two-hop classes carrying both excluded NFs forces
// two switches onto the same side of the exclusion, while two further
// classes need one NF each on exactly those switches — that make full
// separation provably impossible no matter how chains are re-oriented.
// The engine detects those and refuses (see
// TestExclusionUnsatisfiableDetected); the audit runs at a class count
// where the exclusion is satisfiable on all four topologies so it can
// assert the strong claim: every returned placement separates every
// excluded pair on every host.
const auditMaxClasses = 16

// ScenarioHierarchy rebuilds a problem's flat chains as a policy
// hierarchy: one class-scoped merge layer per class carrying its chain as
// a partial order, plus a single org-scoped layer contributing the
// anti-affinity pairs. The class layers keep every precedence of the flat
// chain except the relative order of anti-affine pairs, which is left
// unconstrained — an excluded pair must not share a host anyway, so
// pinning its order can make separation unsatisfiable (two 2-hop classes
// traversing the same link in opposite directions with ids→proxy chains
// force ids and proxy onto both endpoints); the partial order lets
// variant selection pick an interference-free orientation per class. The
// returned tenant map files every class under auditTenant.
func ScenarioHierarchy(prob *core.Problem, pairs []policy.NFPair) (*policy.Hierarchy, map[core.ClassID]string, error) {
	if prob == nil || len(prob.Classes) == 0 {
		return nil, nil, errors.New("experiments: empty problem")
	}
	h := policy.NewHierarchy()
	if len(pairs) > 0 {
		if err := h.Attach(policy.PolicySpec{
			Name:         "org-anti-affinity",
			Scope:        policy.ScopeOrg,
			AntiAffinity: pairs,
		}); err != nil {
			return nil, nil, fmt.Errorf("experiments: %w", err)
		}
	}
	excluded := make(map[policy.NFPair]bool, len(pairs))
	for _, p := range pairs {
		excluded[p] = true
	}
	tenants := make(map[core.ClassID]string, len(prob.Classes))
	for _, cl := range prob.Classes {
		tenants[cl.ID] = auditTenant
		d, err := relaxedDAG(cl.Chain, excluded)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: class %d: %w", cl.ID, err)
		}
		if err := h.Attach(policy.PolicySpec{
			Name:    fmt.Sprintf("class-%d", cl.ID),
			Scope:   policy.ScopeClass,
			Tenant:  auditTenant,
			ClassID: int(cl.ID),
			DAG:     d,
		}); err != nil {
			return nil, nil, fmt.Errorf("experiments: class %d: %w", cl.ID, err)
		}
	}
	return h, tenants, nil
}

// relaxedDAG lifts a total-order chain to its transitive-closure DAG
// minus any edge that orders an excluded pair.
func relaxedDAG(c policy.Chain, excluded map[policy.NFPair]bool) (*policy.ChainDAG, error) {
	d, err := policy.NewChainDAG(c...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			p, err := policy.NewNFPair(c[i], c[j])
			if err != nil {
				return nil, err
			}
			if excluded[p] {
				continue
			}
			if err := d.AddEdge(c[i], c[j]); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// PolicyAuditRow is one scenario's interference-freedom audit under
// anti-affinity. Solve times are the engine's own SolveTime (Table V's
// metric), not harness wall clock.
type PolicyAuditRow struct {
	Topology string
	Classes  int
	// Pairs renders the enforced exclusions.
	Pairs []string
	// Flat solve (no exclusions) for the overhead comparison.
	FlatObjective int
	FlatSolveTime time.Duration
	// Constrained solve, compiled through the hierarchy.
	Objective int
	SolveTime time.Duration
	// ColocatedPairs counts hosts where both sides of an excluded pair
	// landed — must be zero.
	ColocatedPairs int
	// AuditViolations counts failed controller audits (invariants,
	// shadow tables, enforcement) after installing the constrained
	// placement — must be zero.
	AuditViolations int
}

// Overhead is the instance-count cost of the exclusions relative to the
// flat solve. It can be negative: the hierarchy also relaxes the excluded
// pair's relative order, and the extra packing freedom sometimes saves
// more instances than the separation costs.
func (r PolicyAuditRow) Overhead() float64 {
	if r.FlatObjective == 0 {
		return 0
	}
	return float64(r.Objective-r.FlatObjective) / float64(r.FlatObjective)
}

// ColocatedPairs counts the hosts of a placement on which both sides of
// an excluded pair hold at least one instance.
func ColocatedPairs(pl *core.Placement, pairs []policy.NFPair) int {
	n := 0
	for _, m := range pl.Counts {
		for _, p := range pairs {
			if m[p.A] > 0 && m[p.B] > 0 {
				n++
			}
		}
	}
	return n
}

// PolicyAudit runs the audit for one scenario: solve the mean problem
// flat, rebuild it through the hierarchy with the given exclusions, solve
// again, and install the constrained placement into a controller whose
// invariant, shadow-table and enforcement audits must all pass.
func PolicyAudit(sc *Scenario, pairs []policy.NFPair) (PolicyAuditRow, error) {
	if sc == nil {
		return PolicyAuditRow{}, errors.New("experiments: nil scenario")
	}
	if len(pairs) == 0 {
		return PolicyAuditRow{}, errors.New("experiments: no anti-affinity pairs to audit")
	}
	row := PolicyAuditRow{Topology: sc.Name}
	for _, p := range pairs {
		row.Pairs = append(row.Pairs, p.String())
	}

	// Audit a copy so the caller's scenario keeps its Table V class count.
	audited := *sc
	if audited.MaxClasses > auditMaxClasses {
		audited.MaxClasses = auditMaxClasses
	}
	sc = &audited

	flat, err := sc.MeanProblem()
	if err != nil {
		return row, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	row.Classes = len(flat.Classes)
	// Variant selection gets a budget proportional to the class count:
	// every both-NF class may need its orientation flipped to make the
	// exclusion satisfiable.
	eng := core.NewEngine(core.EngineOptions{
		MaxVariantSolves:  4 * len(flat.Classes),
		MaxAffinityRounds: 4096,
	})
	flatPl, err := eng.Solve(flat)
	if err != nil {
		return row, fmt.Errorf("experiments: %s: flat solve: %w", sc.Name, err)
	}
	row.FlatObjective = flatPl.Objective
	row.FlatSolveTime = flatPl.SolveTime

	cons, err := sc.MeanProblem()
	if err != nil {
		return row, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	h, tenants, err := ScenarioHierarchy(cons, pairs)
	if err != nil {
		return row, err
	}
	if err := core.ApplyHierarchy(cons, h, tenants); err != nil {
		return row, fmt.Errorf("experiments: %s: %w", sc.Name, err)
	}
	// The hierarchy relaxes only the excluded pairs' relative order: every
	// compiled chain still runs exactly the flat chain's NF set.
	for i := range cons.Classes {
		cc, fc := cons.Classes[i].Chain, flat.Classes[i].Chain
		if len(cc) != len(fc) {
			return row, fmt.Errorf("experiments: %s: class %d hierarchy chain %v lost NFs vs flat %v",
				sc.Name, cons.Classes[i].ID, cc, fc)
		}
		for _, nf := range fc {
			if !cc.Contains(nf) {
				return row, fmt.Errorf("experiments: %s: class %d hierarchy chain %v dropped %v",
					sc.Name, cons.Classes[i].ID, cc, nf)
			}
		}
	}
	pl, err := eng.Solve(cons)
	if err != nil {
		return row, fmt.Errorf("experiments: %s: constrained solve: %w", sc.Name, err)
	}
	row.Objective = pl.Objective
	row.SolveTime = pl.SolveTime
	row.ColocatedPairs = ColocatedPairs(pl, cons.AntiAffinity)
	if err := pl.Verify(cons); err != nil {
		return row, fmt.Errorf("experiments: %s: verify: %w", sc.Name, err)
	}

	ctrl, err := sc.newController(sim.New())
	if err != nil {
		return row, err
	}
	handler, err := controller.NewDynamicHandler(ctrl)
	if err != nil {
		return row, fmt.Errorf("experiments: %w", err)
	}
	if err := ctrl.InstallPlacement(cons, pl); err != nil {
		return row, fmt.Errorf("experiments: %s: install: %w", sc.Name, err)
	}
	for _, audit := range []func() error{handler.CheckInvariants, ctrl.CheckTables, ctrl.CheckEnforcement} {
		if err := audit(); err != nil {
			row.AuditViolations++
		}
	}
	return row, nil
}

// PolicyAuditAll audits every scenario in Table V order.
func PolicyAuditAll(scs []*Scenario, pairs []policy.NFPair) ([]PolicyAuditRow, error) {
	rows := make([]PolicyAuditRow, 0, len(scs))
	for _, sc := range scs {
		row, err := PolicyAudit(sc, pairs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
