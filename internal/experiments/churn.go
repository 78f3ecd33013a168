// Churn replay: a deterministic fast-failover torture harness. It
// drives repeated overload → recovery waves through the Dynamic Handler
// on a small synthetic topology, optionally under an injected
// orchestrator.FaultPlan, and asserts DynamicHandler.CheckInvariants
// after every single simulation event. The produced trace is fully
// deterministic, so a zero fault plan must replay byte-identically to a
// run with no plan at all — the regression guard for the fault layer
// itself.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/orchestrator"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// The churn replay's fixed shape: a line of churnSwitches switches;
// every wave runs churnSurgeObserves then churnCoolObserves Observe
// calls, each followed by a churnStepSeconds clock advance (shorter than
// a 4.6 s worst-case boot, so activations land between observations, not
// conveniently before them). Every class is planned at churnPlannedMbps;
// churnSurgeMbps overloads the planned instance and churnBaseMbps sits
// below the rollback threshold.
const (
	churnSwitches      = 4
	churnSurgeObserves = 2
	churnCoolObserves  = 2
	churnStepSeconds   = 3
	churnPlannedMbps   = 450
	churnSurgeMbps     = 1600
	churnBaseMbps      = 100
)

// ChurnConfig parameterizes one churn replay. The zero value is usable:
// withChurnDefaults fills the zero fields that have a default.
type ChurnConfig struct {
	// Classes is how many traffic classes share the line (default 1).
	// Odd-numbered classes run the line in reverse.
	Classes int
	// Waves is the number of surge → recovery cycles (default 3).
	Waves int
	// HostCores caps every host's core count (0 keeps the 64-core
	// default). Tight hosts force spawns onto a different switch than
	// the base instance — the setup a targeted host-crash plan needs.
	HostCores int
	// Seed drives the controller's boot-time jitter.
	Seed int64
	// Faults, when non-nil, is injected into the orchestrator.
	Faults *orchestrator.FaultPlan
	// ReoptMidFailover fires a full greedy re-optimization after every
	// surge observation — i.e. while the Dynamic Handler is actively
	// reshaping sub-class weights — and commits the old→new delta
	// through a make-before-break transaction whose audit hook asserts
	// the complete invariant set at every class boundary. This is the
	// adversarial interleaving for the two control loops the paper keeps
	// separate: the periodic Optimization Engine pass racing the
	// event-driven fast failover.
	ReoptMidFailover bool
	// Probe runs CheckEnforcement after the final quiesce (leave off for
	// plans that crash hosts serving base sub-classes).
	Probe bool
	// TraceCapacity, when positive, attaches a virtual-time journal of
	// that ring-buffer capacity to the replay: the controller, Dynamic
	// Handler, orchestrator, and LP engine all record into it, and the
	// result carries the journal plus a unified metrics snapshot. Zero
	// disables tracing entirely (no recorder is even constructed).
	TraceCapacity int
}

func (cfg ChurnConfig) withChurnDefaults() ChurnConfig {
	if cfg.Classes == 0 {
		cfg.Classes = 1
	}
	if cfg.Waves == 0 {
		cfg.Waves = 3
	}
	return cfg
}

// ChurnResult is the deterministic outcome of one replay.
type ChurnResult struct {
	// Trace holds one line per observation step plus quiesce steps —
	// the byte-identity artifact.
	Trace []string
	// InvariantErr is the first CheckInvariants violation seen at any
	// simulation event (nil when the discipline held throughout).
	InvariantErr error
	// InvariantChecks counts how many post-event audits ran.
	InvariantChecks int
	// EnforceErr is the final CheckEnforcement verdict (nil when not
	// probed or clean).
	EnforceErr error
	// FinalExtraCores, PendingSpawns and Zombies are the post-quiesce
	// leak gauges: all must be zero after every class rolled back.
	FinalExtraCores int
	PeakExtraCores  int
	PendingSpawns   int
	Zombies         int
	// Transitions totals the state-machine transitions Observe reported.
	Transitions int
	// ReoptPasses counts the mid-failover re-optimizations committed;
	// ReoptChanged totals the classes whose rules they moved
	// (ReoptMidFailover only).
	ReoptPasses  int
	ReoptChanged int
	// Events is the simulation's fired-event count.
	Events uint64
	// Journal is the virtual-time event journal (nil unless
	// ChurnConfig.TraceCapacity was set). Its events are deterministic:
	// TraceCapacity aside, two replays of the same config journal the
	// same sequence. Metrics is the unified registry snapshot taken after
	// the replay (also nil without tracing).
	Journal []trace.Event
	Metrics *metrics.RegistrySnapshot
	// SpawnSwitches lists every switch that ever hosted a beyond-base
	// sub-class — the candidates for a targeted host-crash plan.
	// BaseSwitches lists the switches hosting base sub-classes (crash
	// those and the classes they serve lose enforcement entirely).
	SpawnSwitches []topology.NodeID
	BaseSwitches  []topology.NodeID
	// OrchCounters and HandlerCounters snapshot the lifecycle counters.
	OrchCounters    map[string]uint64
	HandlerCounters map[string]uint64
}

// churnLine builds the harness topology: a line of n backbone switches.
func churnLine(n int) (*topology.Graph, error) {
	g := topology.NewGraph("churn-line")
	var prev topology.NodeID
	for i := 0; i < n; i++ {
		id := g.AddNode(fmt.Sprintf("s%d", i), topology.KindBackbone)
		if i > 0 {
			if err := g.AddLink(prev, id, 10_000, 1); err != nil {
				return nil, err
			}
		}
		prev = id
	}
	return g, nil
}

// churnClasses lays cfg.Classes firewall classes along the line,
// odd-numbered ones in reverse, each planned at churnPlannedMbps.
func churnClasses(cfg ChurnConfig) []core.Class {
	fwd := make([]topology.NodeID, churnSwitches)
	for i := range fwd {
		fwd[i] = topology.NodeID(i)
	}
	rev := make([]topology.NodeID, churnSwitches)
	for i := range rev {
		rev[i] = fwd[churnSwitches-1-i]
	}
	classes := make([]core.Class, cfg.Classes)
	for i := range classes {
		path := fwd
		if i%2 == 1 {
			path = rev
		}
		classes[i] = core.Class{
			ID:       core.ClassID(i),
			Path:     path,
			Chain:    policy.Chain{policy.Firewall},
			RateMbps: churnPlannedMbps,
		}
	}
	return classes
}

// ChurnReplay builds the synthetic deployment, injects cfg.Faults, and
// replays cfg.Waves surge/recovery cycles with an invariant audit after
// every simulation event. It returns an error only for setup problems or
// an Observe that fails outright; lifecycle faults and invariant
// violations are reported in the result.
func ChurnReplay(cfg ChurnConfig) (*ChurnResult, error) {
	cfg = cfg.withChurnDefaults()
	g, err := churnLine(churnSwitches)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	clock := sim.New()
	var rec *trace.Recorder
	if cfg.TraceCapacity > 0 {
		rec, err = trace.NewRecorder(clock, cfg.TraceCapacity)
		if err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
	}
	var hostRes policy.Resources
	if cfg.HostCores > 0 {
		hostRes = policy.Resources{Cores: cfg.HostCores, MemoryMB: 128 * 1024}
	}
	ctrl, err := controller.New(controller.Config{
		Topology:      g,
		Clock:         clock,
		HostResources: hostRes,
		Seed:          cfg.Seed,
		Faults:        cfg.Faults,
		Tracer:        rec,
	})
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	classes := churnClasses(cfg)
	prob := &core.Problem{Topo: g, Classes: classes, Avail: ctrl.Avail()}
	pl, err := core.NewEngine(core.EngineOptions{Tracer: rec}).Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("churn: solve: %w", err)
	}
	if err := ctrl.InstallPlacement(prob, pl); err != nil {
		return nil, fmt.Errorf("churn: install: %w", err)
	}
	handler, err := controller.NewDynamicHandler(ctrl)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}

	res := &ChurnResult{}
	baseHosts := make(map[topology.NodeID]bool)
	for i := 0; i < cfg.Classes; i++ {
		a, err := ctrl.Assignment(core.ClassID(i))
		if err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
		for s := 0; s < a.NumBase(); s++ {
			for _, hop := range a.Subclass(s).Hops {
				baseHosts[a.Class.Path[hop]] = true
			}
		}
	}
	for v := range baseHosts {
		res.BaseSwitches = append(res.BaseSwitches, v)
	}
	sort.Slice(res.BaseSwitches, func(i, j int) bool { return res.BaseSwitches[i] < res.BaseSwitches[j] })
	// The tentpole hook: audit the full transactional-failover invariant
	// set after every fired event — boot completions, aborted callbacks,
	// scheduled host crashes — not just at observation boundaries.
	clock.OnEvent(func(now time.Duration) {
		res.InvariantChecks++
		if res.InvariantErr == nil {
			if err := handler.CheckInvariants(); err != nil {
				res.InvariantErr = fmt.Errorf("after event at t=%v: %w", now, err)
			}
		}
	})

	surge := make(map[core.ClassID]float64, cfg.Classes)
	base := make(map[core.ClassID]float64, cfg.Classes)
	for i := 0; i < cfg.Classes; i++ {
		surge[core.ClassID(i)] = churnSurgeMbps
		base[core.ClassID(i)] = churnBaseMbps
	}

	spawnHosts := make(map[topology.NodeID]bool)
	now := time.Duration(0)
	step := func(rates map[core.ClassID]float64, label string) error {
		n, err := handler.Observe(rates)
		if err != nil {
			return fmt.Errorf("churn: observe at t=%v: %w", now, err)
		}
		res.Transitions += n
		now += time.Duration(churnStepSeconds) * time.Second
		if err := clock.AdvanceTo(now); err != nil {
			return fmt.Errorf("churn: advance: %w", err)
		}
		subs := make([]string, 0, cfg.Classes)
		for i := 0; i < cfg.Classes; i++ {
			a, err := ctrl.Assignment(core.ClassID(i))
			if err != nil {
				return fmt.Errorf("churn: %w", err)
			}
			subs = append(subs, fmt.Sprintf("c%d:%d/%d", i, a.NumSubclasses(), a.NumBase()))
			for s := a.NumBase(); s < a.NumSubclasses(); s++ {
				for _, hop := range a.Subclass(s).Hops {
					spawnHosts[a.Class.Path[hop]] = true
				}
			}
		}
		res.Trace = append(res.Trace, fmt.Sprintf(
			"t=%-4v %-12s trans=%d extra=%d pending=%d zombies=%d subs=%s",
			now, label, n, handler.ExtraCores(), handler.PendingSpawns(),
			handler.Zombies(), strings.Join(subs, " ")))
		return nil
	}

	// reoptPass re-solves the planned problem with the greedy engine and
	// commits the delta while failover state is live. Reap stays off: the
	// handler still accounts for its spawned instances, and reaping one
	// out from under it would break the core-accounting invariant the
	// audit hook asserts at every class boundary.
	reoptPass := func(label string) error {
		pl2, err := core.SolveGreedy(prob)
		if err != nil {
			return fmt.Errorf("churn: %s solve: %w", label, err)
		}
		rep, err := ctrl.ReOptimize(prob, pl2, controller.ReoptOptions{
			Audit: handler.CheckInvariants,
		})
		if err != nil {
			return fmt.Errorf("churn: %s commit: %w", label, err)
		}
		res.ReoptPasses++
		res.ReoptChanged += rep.ClassesChanged()
		res.Trace = append(res.Trace, fmt.Sprintf(
			"t=%-4v %-12s add=%d rm=%d upd=%d rate=%d same=%d rules=%d",
			now, label, rep.Added, rep.Removed, rep.Updated, rep.RateOnly,
			rep.Unchanged, rep.RulesInstalled+rep.RulesRemoved))
		return nil
	}

	for wave := 0; wave < cfg.Waves; wave++ {
		for i := 0; i < churnSurgeObserves; i++ {
			if err := step(surge, fmt.Sprintf("wave%d-surge%d", wave, i)); err != nil {
				return nil, err
			}
			if cfg.ReoptMidFailover {
				if err := reoptPass(fmt.Sprintf("wave%d-reopt%d", wave, i)); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < churnCoolObserves; i++ {
			if err := step(base, fmt.Sprintf("wave%d-cool%d", wave, i)); err != nil {
				return nil, err
			}
		}
	}
	// Quiesce: keep observing at base rates until late boots have fired,
	// every pending slot has been released by its callback, and zombie
	// cancels have been reaped. Bounded, so a plan with CancelFailProb=1
	// terminates (and reports the zombies it could not reap).
	for i := 0; i < 32; i++ {
		if i >= 2 && handler.PendingSpawns() == 0 && handler.Zombies() == 0 {
			break
		}
		if err := step(base, fmt.Sprintf("quiesce%d", i)); err != nil {
			return nil, err
		}
	}

	res.FinalExtraCores = handler.ExtraCores()
	res.PeakExtraCores = handler.PeakExtraCores()
	res.PendingSpawns = handler.PendingSpawns()
	res.Zombies = handler.Zombies()
	res.Events = clock.Fired()
	res.OrchCounters = ctrl.Orchestrator().Counters().Snapshot()
	res.HandlerCounters = handler.Counters().Snapshot()
	for v := range spawnHosts {
		res.SpawnSwitches = append(res.SpawnSwitches, v)
	}
	sort.Slice(res.SpawnSwitches, func(i, j int) bool { return res.SpawnSwitches[i] < res.SpawnSwitches[j] })
	if cfg.Probe {
		res.EnforceErr = ctrl.CheckEnforcement()
	}
	if rec != nil {
		res.Journal = rec.Events()
		snap := churnRegistry(ctrl, handler).Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// churnRegistry aggregates every counter family a replay touches into one
// registry — the unified snapshot exported as the per-run JSON artifact.
// The LP and flow-setup families are process-global, so their values
// accumulate across replays in one process; the per-replay orchestrator
// and handler counters start from zero.
func churnRegistry(ctrl *controller.Controller, handler *controller.DynamicHandler) *metrics.Registry {
	reg := metrics.NewRegistry()
	// Registration can only fail on duplicate or empty names; the four
	// names here are distinct literals.
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(reg.AddCounters("orchestrator", ctrl.Orchestrator().Counters()))
	must(reg.AddCounters("handler", handler.Counters()))
	must(reg.AddLP("lp", &metrics.LP))
	must(reg.AddFlowSetup("flow_setup", &metrics.FlowSetup))
	must(reg.AddGauge("extra_cores", func() float64 { return float64(handler.ExtraCores()) }))
	must(reg.AddGauge("peak_extra_cores", func() float64 { return float64(handler.PeakExtraCores()) }))
	return reg
}
