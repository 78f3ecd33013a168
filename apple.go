package apple

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// Config describes an APPLE deployment.
type Config struct {
	// Topology is the SDN network. Required.
	Topology *Topology
	// HostResources is the hardware of the APPLE host at each hosting
	// switch (zero value: the paper's 64-core host).
	HostResources Resources
	// HostResourcesBySwitch overrides HostResources per switch.
	HostResourcesBySwitch map[NodeID]Resources
	// HostSwitches restricts which switches carry an APPLE host; nil
	// means all of them.
	HostSwitches []NodeID
	// Engine tunes the Optimization Engine.
	Engine EngineOptions
	// Seed drives every randomized component deterministically.
	Seed int64
}

// Framework is a running APPLE deployment: the controller with its
// switches, hosts, and orchestrator, plus the optimizer. Create with New,
// then Deploy policy classes and drive traffic.
//
// Framework is not safe for concurrent use; the underlying simulation is
// single-threaded by design.
type Framework struct {
	cfg       Config
	clock     *sim.Simulation
	ctrl      *controller.Controller
	engine    *core.Engine
	handler   *controller.DynamicHandler
	prob      *core.Problem
	placement *core.Placement
}

// New constructs a framework over the given topology.
func New(cfg Config) (*Framework, error) {
	if cfg.Topology == nil {
		return nil, errors.New("apple: nil topology")
	}
	clock := sim.New()
	ctrl, err := controller.New(controller.Config{
		Topology:              cfg.Topology,
		Clock:                 clock,
		HostResources:         cfg.HostResources,
		HostResourcesBySwitch: cfg.HostResourcesBySwitch,
		HostSwitches:          cfg.HostSwitches,
		Seed:                  cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("apple: %w", err)
	}
	return &Framework{
		cfg:    cfg,
		clock:  clock,
		ctrl:   ctrl,
		engine: core.NewEngine(cfg.Engine),
	}, nil
}

// Avail reports free resources per hosting switch (the A_v the
// Optimization Engine consumes).
func (f *Framework) Avail() map[NodeID]Resources { return f.ctrl.Avail() }

// Deploy runs the Optimization Engine on the given classes and installs
// the resulting placement: VNF instances are provisioned proactively and
// all physical-switch and vSwitch rules are generated. It also arms the
// Dynamic Handler for fast failover.
func (f *Framework) Deploy(classes []Class) error {
	if f.placement != nil {
		return errors.New("apple: already deployed; create a fresh Framework to re-plan")
	}
	prob := &core.Problem{
		Topo:    f.cfg.Topology,
		Classes: classes,
		Avail:   f.ctrl.Avail(),
	}
	pl, err := f.engine.Solve(prob)
	if err != nil {
		return fmt.Errorf("apple: %w", err)
	}
	if err := f.ctrl.InstallPlacement(prob, pl); err != nil {
		return fmt.Errorf("apple: %w", err)
	}
	handler, err := controller.NewDynamicHandler(f.ctrl)
	if err != nil {
		return fmt.Errorf("apple: %w", err)
	}
	f.prob = prob
	f.placement = pl
	f.handler = handler
	return nil
}

// Placement returns the installed placement, or nil before Deploy.
func (f *Framework) Placement() *Placement { return f.placement }

// Problem returns the deployed problem, or nil before Deploy.
func (f *Framework) Problem() *Problem { return f.prob }

// CheckEnforcement probes every deployed class with packets and verifies
// each traverses exactly its policy chain, in order, on its own path.
func (f *Framework) CheckEnforcement() error {
	if f.placement == nil {
		return errors.New("apple: not deployed")
	}
	return f.ctrl.CheckEnforcement()
}

// CheckTables scans every physical-switch and vSwitch flow table for
// shadowed rules — entries an earlier rule subsumes, which can never
// match. The Rule Generator must never produce any; a non-empty result
// means some sub-class silently lost its rules.
func (f *Framework) CheckTables() error {
	return f.ctrl.CheckTables()
}

// FlowHeader builds a concrete probe header for a deployed class; sub
// varies the source host within the class prefix.
func (f *Framework) FlowHeader(id ClassID, sub uint32) (Header, error) {
	return f.ctrl.FlowHeader(id, sub)
}

// Forward injects one packet at an ingress switch and walks it through
// the data plane, returning the full trace.
func (f *Framework) Forward(hdr Header, ingress NodeID) (Trace, error) {
	return f.ctrl.Forward(hdr, ingress)
}

// VisitedNFs maps a trace's instances to their NF types — the enforced
// chain as observed by the packet.
func (f *Framework) VisitedNFs(tr Trace) ([]NF, error) {
	out := make([]NF, 0, len(tr.Instances))
	for _, id := range tr.Instances {
		nf, err := f.ctrl.InstanceNF(id)
		if err != nil {
			return nil, fmt.Errorf("apple: %w", err)
		}
		out = append(out, nf)
	}
	return out, nil
}

// ObserveTraffic feeds one snapshot of per-class rates (Mbps) to the
// Dynamic Handler (triggering fast failover and rollback as needed) and
// returns the resulting traffic-weighted loss rate plus the number of
// overload/recovery transitions handled.
func (f *Framework) ObserveTraffic(rates map[ClassID]float64) (loss float64, transitions int, err error) {
	if f.placement == nil {
		return 0, 0, errors.New("apple: not deployed")
	}
	transitions, err = f.handler.Observe(rates)
	if err != nil {
		return 0, transitions, fmt.Errorf("apple: %w", err)
	}
	loss, err = f.ctrl.LossRate(rates)
	if err != nil {
		return 0, transitions, fmt.Errorf("apple: %w", err)
	}
	return loss, transitions, nil
}

// LossRate computes the loss for the given rates without engaging the
// Dynamic Handler (the no-failover view).
func (f *Framework) LossRate(rates map[ClassID]float64) (float64, error) {
	if f.placement == nil {
		return 0, errors.New("apple: not deployed")
	}
	return f.ctrl.LossRate(rates)
}

// Step advances the deployment's virtual clock, letting in-flight VM
// boots, reconfigurations, and rule installations complete.
func (f *Framework) Step(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("apple: negative step %v", d)
	}
	return f.clock.AdvanceTo(f.clock.Now() + d)
}

// Now returns the deployment's virtual time.
func (f *Framework) Now() time.Duration { return f.clock.Now() }

// TotalInstances returns the number of VNF instances currently
// provisioned.
func (f *Framework) TotalInstances() int {
	return len(f.ctrl.Orchestrator().Instances())
}

// UsedResources returns the hardware in use across all APPLE hosts (the
// Fig 11 metric, live).
func (f *Framework) UsedResources() Resources {
	return f.ctrl.Orchestrator().TotalUsed()
}

// PeakFailoverCores reports the maximum hardware fast failover has
// concurrently consumed.
func (f *Framework) PeakFailoverCores() int {
	if f.handler == nil {
		return 0
	}
	return f.handler.PeakExtraCores()
}

// RuleUpdates returns the number of TCAM rule installations performed so
// far.
func (f *Framework) RuleUpdates() int { return f.ctrl.RuleUpdates() }

// SubclassesOf returns the current sub-class hop vectors and traffic
// weights of a deployed class.
func (f *Framework) SubclassesOf(id ClassID) ([]Subclass, []float64, error) {
	a, err := f.ctrl.Assignment(id)
	if err != nil {
		return nil, nil, fmt.Errorf("apple: %w", err)
	}
	subs := make([]Subclass, a.NumSubclasses())
	weights := make([]float64, len(subs))
	for s := range subs {
		subs[s] = a.Subclass(s)
		subs[s].Hops = slices.Clone(subs[s].Hops)
		weights[s] = a.Weight(s)
	}
	return subs, weights, nil
}

// BuildClasses aggregates a traffic matrix into per-OD-pair classes with
// shortest-path routes and generator-drawn chains — the standard way to
// produce Deploy input from a demand matrix.
func BuildClasses(g *Topology, tm *TrafficMatrix, gen *ChainGenerator,
	avail map[NodeID]Resources, minRateMbps float64, maxClasses int) ([]Class, error) {
	prob, err := core.BuildProblem(g, tm, gen, avail, core.BuildOptions{
		MinRateMbps: minRateMbps,
		MaxClasses:  maxClasses,
	})
	if err != nil {
		return nil, fmt.Errorf("apple: %w", err)
	}
	return prob.Classes, nil
}

// UniformHosts assigns the same host hardware to every switch.
func UniformHosts(g *Topology, r Resources) map[NodeID]Resources {
	return core.UniformHosts(g, r)
}

// DefaultHostResources is the paper's 64-core APPLE host.
func DefaultHostResources() Resources {
	return policy.Resources{Cores: 64, MemoryMB: 128 * 1024}
}

// ShortestPath exposes the routing used when classes are built, so
// callers can construct Class values consistent with the data plane.
func ShortestPath(g *Topology, src, dst NodeID) ([]NodeID, error) {
	return g.ShortestPath(src, dst)
}

// AddClass places one new class online, without re-running the global
// optimization: existing instances' headroom is reused and new instances
// are provisioned only for the remainder (the paper's future-work online
// algorithm). The class participates in enforcement checks and fast
// failover like any deployed class.
func (f *Framework) AddClass(c Class) error {
	if f.placement == nil {
		return errors.New("apple: deploy before adding classes online")
	}
	if err := f.ctrl.AddClass(c); err != nil {
		return fmt.Errorf("apple: %w", err)
	}
	f.prob.Classes = append(f.prob.Classes, c)
	return nil
}
