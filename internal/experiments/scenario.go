// Package experiments composes the full APPLE stack into the paper's
// simulation evaluation (§IX): the four topology/traffic scenarios, and
// the drivers that regenerate Table V (optimization time), Fig 10 (TCAM
// reduction), Fig 11 (hardware usage vs the ingress strawman), and Fig 12
// (loss under traffic dynamics with and without fast failover). The cmd/
// tools and the benchmark harness are thin wrappers over this package.
package experiments

import (
	"errors"
	"fmt"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
)

// Scenario is one evaluation setting: a topology, its time-varying
// traffic-matrix series, a policy-chain generator, and the APPLE-host
// deployment.
type Scenario struct {
	Name  string
	Graph *topology.Graph
	// Series is the snapshot sequence the evaluation replays (672 hourly
	// matrices for Internet2/GEANT; 1-second trace bins for UNIV1).
	Series []*traffic.Matrix
	// Seed drives policy-chain assignment; Problem draws a fresh
	// generator from it each call, so the same snapshot always yields the
	// same problem.
	Seed  int64
	Avail map[topology.NodeID]policy.Resources
	// MaxClasses caps the optimization input size (the role class
	// aggregation plays in §IV-A).
	MaxClasses int
	// MinRateMbps drops negligible OD pairs.
	MinRateMbps float64
	// Multipath marks data-center scenarios where classes ride ECMP
	// (drives the Fig 10 alternate-path accounting).
	Multipath bool
	// SnapshotSeconds is the virtual time between snapshots in the Fig 12
	// replay: hourly WAN matrices are replayed at 10 s per snapshot (so
	// orchestrated boots complete between snapshots, as they would within
	// an hour), while the UNIV1 trace is true 1-second bins.
	SnapshotSeconds int
}

// Options tunes scenario construction.
type Options struct {
	// Seed makes every generated artifact deterministic.
	Seed int64
	// Snapshots overrides the series length (default 672, matching the
	// paper's four weeks of hourly matrices).
	Snapshots int
	// Scale multiplies the total traffic volume (default 1).
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Snapshots == 0 {
		o.Snapshots = 672
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// degreeMasses weights gravity-model node masses by degree.
func degreeMasses(g *topology.Graph) ([]float64, error) {
	masses := make([]float64, g.NumNodes())
	for _, n := range g.Nodes() {
		d, err := g.Degree(n.ID)
		if err != nil {
			return nil, err
		}
		masses[n.ID] = float64(d)
	}
	return masses, nil
}

// hostRes is the standard APPLE host (§IX-A: 64 cores).
func hostRes() policy.Resources {
	return policy.Resources{Cores: 64, MemoryMB: 128 * 1024}
}

// wanScenario builds a diurnal WAN scenario.
func wanScenario(name string, g *topology.Graph, totalMbps float64, maxClasses int, o Options) (*Scenario, error) {
	o = o.withDefaults()
	masses, err := degreeMasses(g)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	base, err := traffic.Gravity(masses, totalMbps*o.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	series, err := traffic.Diurnal(base, traffic.DiurnalOptions{
		Snapshots: o.Snapshots,
		// The Optimization Engine plans on the series mean; fast failover
		// is meant for what is left after planning (§VI). A 2.2:1
		// peak-to-trough day leaves realistic transient overloads.
		PeakFactor: 2.2,
		Seed:       o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Scenario{
		Name:            name,
		Graph:           g,
		Series:          series,
		Seed:            o.Seed,
		Avail:           core.UniformHosts(g, hostRes()),
		MaxClasses:      maxClasses,
		MinRateMbps:     1,
		SnapshotSeconds: 10,
	}, nil
}

// Internet2 builds the campus scenario (§IX-A: Internet2, 12 nodes, with
// the Abilene time-varying matrices).
func Internet2(o Options) (*Scenario, error) {
	return wanScenario("Internet2", topology.Internet2(), 9_000, 40, o)
}

// GEANT builds the enterprise scenario (TOTEM GEANT, 23 nodes).
func GEANT(o Options) (*Scenario, error) {
	return wanScenario("GEANT", topology.GEANT(), 30_000, 60, o)
}

// UNIV1 builds the data-center scenario: bursty 1-second trace replay on
// the two-tier fabric, with full hosts at the edge and constrained hosts
// at the two cores (the paper: "the limited hardware capacity at the core
// switches force APPLE to place VNFs at the ingress switches").
func UNIV1(o Options) (*Scenario, error) {
	o = o.withDefaults()
	g := topology.UNIV1()
	// Traffic originates and terminates at edge racks; the cores only
	// transit (and host the small APPLE hosts that constrain placement).
	var edges []int
	for _, n := range g.Nodes() {
		if n.Kind == topology.KindEdge {
			edges = append(edges, int(n.ID))
		}
	}
	series, err := traffic.ReplayTrace(traffic.ReplayOptions{
		Nodes:        g.NumNodes(),
		Snapshots:    o.Snapshots,
		MeanFlows:    160,
		MeanRateMbps: 110 * o.Scale,
		Endpoints:    edges,
		Seed:         o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Scenario{
		Name:   "UNIV1",
		Graph:  g,
		Series: series,
		Seed:   o.Seed,
		Avail: core.EdgeHeavyHosts(g, hostRes(),
			policy.Resources{Cores: 8, MemoryMB: 8 * 1024}),
		MaxClasses:      90,
		MinRateMbps:     1,
		Multipath:       true,
		SnapshotSeconds: 1,
	}, nil
}

// AS3679 builds the large-ISP scalability scenario (Rocketfuel AS-3679
// with FNSS-synthesized matrices). The paper uses it only for the Table V
// computation-time measurement.
func AS3679(o Options) (*Scenario, error) {
	o = o.withDefaults()
	g := topology.AS3679()
	masses, err := degreeMasses(g)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	series, err := traffic.SynthFNSS(masses, traffic.SynthOptions{
		TotalMbps: 60_000 * o.Scale,
		Snapshots: min(o.Snapshots, 24),
		Seed:      o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Scenario{
		Name:            "AS-3679",
		Graph:           g,
		Series:          series,
		Seed:            o.Seed,
		Avail:           core.UniformHosts(g, hostRes()),
		MaxClasses:      300,
		MinRateMbps:     1,
		SnapshotSeconds: 10,
	}, nil
}

// All returns the four scenarios in Table V order.
func All(o Options) ([]*Scenario, error) {
	builders := []func(Options) (*Scenario, error){Internet2, GEANT, UNIV1, AS3679}
	out := make([]*Scenario, 0, len(builders))
	for _, b := range builders {
		sc, err := b(o)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// Problem builds the Optimization Engine input from one traffic matrix of
// the scenario.
func (sc *Scenario) Problem(tm *traffic.Matrix) (*core.Problem, error) {
	if sc == nil || tm == nil {
		return nil, errors.New("experiments: nil scenario or matrix")
	}
	// A fresh generator per call keeps Problem deterministic: the same
	// matrix always yields the same classes and chains.
	gen, err := policy.NewGenerator(sc.Seed, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return core.BuildProblem(sc.Graph, tm, gen, sc.Avail, core.BuildOptions{
		MinRateMbps: sc.MinRateMbps,
		MaxClasses:  sc.MaxClasses,
	})
}

// MeanProblem builds the problem from the series mean — the paper's input
// to the global optimization ("whose traffic matrix input is the mean
// value of the 672 snapshots").
func (sc *Scenario) MeanProblem() (*core.Problem, error) {
	mean, err := traffic.Mean(sc.Series)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return sc.Problem(mean)
}

// newController builds an empty controller on the scenario's deployment:
// an APPLE host of the scenario's size at every switch it provisions.
func (sc *Scenario) newController(clock *sim.Simulation) (*controller.Controller, error) {
	hostSwitches := make([]topology.NodeID, 0, len(sc.Avail))
	for v := range sc.Avail {
		hostSwitches = append(hostSwitches, v)
	}
	ctrl, err := controller.New(controller.Config{
		Topology:              sc.Graph,
		Clock:                 clock,
		HostSwitches:          hostSwitches,
		HostResourcesBySwitch: sc.Avail,
		Seed:                  sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return ctrl, nil
}
