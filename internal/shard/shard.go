package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/pool"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/tagging"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
)

// Config for New.
type Config struct {
	// Topology is the full physical graph. Every regional controller
	// models all of it — class paths cross region boundaries — but owns
	// APPLE hosts only at its own region's switches.
	Topology *topology.Graph
	// Regions is the partition granularity: how many regional controllers
	// exist. It fixes the semantics (ownership, tag windows, per-region
	// state); results are a pure function of it.
	Regions int
	// Workers bounds the dispatch parallelism: how many regions execute
	// concurrently inside AddClassBatch. It is pure mechanism — Workers=1
	// and Workers=N produce byte-identical per-region state, which the
	// differential suite asserts. 0 means Regions.
	Workers int
	// Seed drives orchestrator jitter; region r uses Seed+r so region 0
	// of a 1-region deployment matches a monolithic controller exactly.
	Seed int64
	// HostResources is the hardware of each APPLE host; zero value uses
	// host.DefaultResources.
	HostResources policy.Resources
	// HostSwitches lists switches that get an APPLE host; nil means every
	// switch. Each host lands in exactly one region — its switch's.
	HostSwitches []topology.NodeID
	// TraceCapacity, when > 0, attaches a trace recorder of that capacity
	// to every regional controller; MergedJournal interleaves them.
	TraceCapacity int
}

// regionShard is one region's controller and the plumbing around it.
type regionShard struct {
	id    int
	clock *sim.Simulation
	ctrl  *controller.Controller
	rec   *trace.Recorder
	// mu serializes control-plane operations on this region. Different
	// regions share nothing mutable, so N regions commit concurrently.
	mu sync.Mutex
}

// ShardedController partitions an APPLE deployment into regions, runs one
// controller per region, and routes every class to its owning region.
// Region count fixes semantics; worker count is pure parallelism — the
// per-region controllers end up byte-identical either way.
type ShardedController struct {
	topo    *topology.Graph
	part    *Partition
	workers int
	hostSet map[topology.NodeID]bool
	// capacity is each host's total hardware, for building per-region
	// re-optimization problems.
	capacity map[topology.NodeID]policy.Resources
	regions  []*regionShard

	mu sync.Mutex
	// owner records each admitted class's region. guarded by mu
	owner map[core.ClassID]int
}

// New builds the partition, the per-region tag windows, and one
// controller per region (each with its own virtual clock and, when
// tracing, its own recorder).
func New(cfg Config) (*ShardedController, error) {
	if cfg.Topology == nil {
		return nil, errors.New("shard: nil topology")
	}
	part, err := NewPartition(cfg.Regions)
	if err != nil {
		return nil, err
	}
	res := cfg.HostResources
	if res.Cores == 0 {
		res = host.DefaultResources()
	}
	hostSwitches := cfg.HostSwitches
	if hostSwitches == nil {
		for _, n := range cfg.Topology.Nodes() {
			hostSwitches = append(hostSwitches, n.ID)
		}
	}
	s := &ShardedController{
		topo:     cfg.Topology,
		part:     part,
		workers:  cfg.Workers,
		hostSet:  make(map[topology.NodeID]bool, len(hostSwitches)),
		capacity: make(map[topology.NodeID]policy.Resources, len(hostSwitches)),
		regions:  make([]*regionShard, cfg.Regions),
		owner:    make(map[core.ClassID]int),
	}
	if s.workers <= 0 {
		s.workers = cfg.Regions
	}
	for _, v := range hostSwitches {
		s.hostSet[v] = true
		s.capacity[v] = res
	}
	for r := 0; r < cfg.Regions; r++ {
		regionHosts := make([]topology.NodeID, 0, len(hostSwitches)/cfg.Regions+1)
		for _, v := range hostSwitches {
			if part.Region(v) == r {
				regionHosts = append(regionHosts, v)
			}
		}
		first, last := part.Window(r)
		alloc, err := tagging.NewAllocatorRange(first, last)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d window: %w", r, err)
		}
		clock := sim.New()
		var rec *trace.Recorder
		if cfg.TraceCapacity > 0 {
			rec, err = trace.NewRecorder(clock, cfg.TraceCapacity)
			if err != nil {
				return nil, fmt.Errorf("shard: region %d recorder: %w", r, err)
			}
		}
		ctrl, err := controller.New(controller.Config{
			Topology:      cfg.Topology,
			Clock:         clock,
			HostResources: cfg.HostResources,
			HostSwitches:  regionHosts,
			Seed:          cfg.Seed + int64(r),
			Tracer:        rec,
			Tags:          alloc,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", r, err)
		}
		s.regions[r] = &regionShard{id: r, clock: clock, ctrl: ctrl, rec: rec}
	}
	return s, nil
}

// Regions returns the region count.
func (s *ShardedController) Regions() int { return s.part.Regions() }

// Partition exposes the region map.
func (s *ShardedController) Partition() *Partition { return s.part }

// Region returns region r's controller, for inspection and probing. The
// caller must not mutate it concurrently with sharded operations.
func (s *ShardedController) Region(r int) (*controller.Controller, error) {
	if r < 0 || r >= len(s.regions) {
		return nil, fmt.Errorf("shard: region %d out of range [0,%d)", r, len(s.regions))
	}
	return s.regions[r].ctrl, nil
}

// Owner returns the owning region of a class, or -1 if not installed.
func (s *ShardedController) Owner(id core.ClassID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.owner[id]; ok {
		return r
	}
	return -1
}

// Classes returns every installed class ID across all regions, sorted.
func (s *ShardedController) Classes() []core.ClassID {
	var out []core.ClassID
	for _, rs := range s.regions {
		out = append(out, rs.ctrl.Classes()...)
	}
	slices.Sort(out)
	return out
}

// route computes the owning region and guards against the one routing
// hazard sharding introduces: the same class ID arriving with a path that
// hashes to a different region, which would alias one prefix in two
// data-plane models.
func (s *ShardedController) route(cl core.Class) (int, error) {
	o, err := s.part.Owner(cl, func(v topology.NodeID) bool { return s.hostSet[v] })
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.owner[cl.ID]; ok && prev != o {
		return 0, fmt.Errorf("shard: class %d routes to region %d but is already installed in region %d",
			cl.ID, o, prev)
	}
	return o, nil
}

// AddClass routes one online arrival to its owning region.
func (s *ShardedController) AddClass(cl core.Class) error {
	o, err := s.route(cl)
	if err != nil {
		return err
	}
	rs := s.regions[o]
	rs.mu.Lock()
	err = rs.ctrl.AddClass(cl)
	rs.mu.Unlock()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.owner[cl.ID] = o
	s.mu.Unlock()
	return nil
}

// AddClassBatch splits a batch by owning region — preserving arrival
// order within each region — and commits the per-region sub-batches
// concurrently on up to Workers dispatch workers. Every region's
// sub-batch runs to completion regardless of other regions' outcomes
// (regions are independent failure domains), so the state each region
// reaches is a pure function of its own sub-sequence; per-region errors
// are joined. Within a region the controller's batch pipeline guarantees
// serial-equivalence, so the whole operation is byte-identical to
// routing the classes one at a time.
func (s *ShardedController) AddClassBatch(classes []core.Class, opts controller.BatchOptions) error {
	if len(classes) == 0 {
		return nil
	}
	groups := make([][]core.Class, len(s.regions))
	for _, cl := range classes {
		o, err := s.route(cl)
		if err != nil {
			return err
		}
		groups[o] = append(groups[o], cl)
	}
	errs := make([]error, len(s.regions))
	_ = pool.RunIndexed(len(s.regions), s.workers, func(r int) error {
		if len(groups[r]) == 0 {
			return nil
		}
		rs := s.regions[r]
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if err := rs.ctrl.AddClassBatch(groups[r], opts); err != nil {
			errs[r] = fmt.Errorf("shard: region %d: %w", r, err)
		}
		return nil // regions fail independently; never abort the fan-out
	})
	// Record ownership of what actually landed: a failed admission inside
	// a region keeps that region's earlier classes installed (the batch
	// pipeline's serial-loop postcondition), so re-read the truth.
	s.mu.Lock()
	for r, group := range groups {
		for _, cl := range group {
			if _, err := s.regions[r].ctrl.Assignment(cl.ID); err == nil {
				s.owner[cl.ID] = r
			}
		}
	}
	s.mu.Unlock()
	return errors.Join(errs...)
}

// ReOptimizeRegion re-solves region r's classes with the greedy engine
// against the region's full host capacity and commits the delta through
// the controller's make-before-break transaction. Other regions are
// untouched — re-optimization is shard-local by construction, because a
// class's eligible hosts all live in its owning region.
func (s *ShardedController) ReOptimizeRegion(r int, opts controller.ReoptOptions) (*controller.ReoptReport, error) {
	if r < 0 || r >= len(s.regions) {
		return nil, fmt.Errorf("shard: region %d out of range [0,%d)", r, len(s.regions))
	}
	rs := s.regions[r]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ids := rs.ctrl.Classes()
	if len(ids) == 0 {
		return &controller.ReoptReport{}, nil
	}
	prob := &core.Problem{
		Topo:    s.topo,
		Classes: make([]core.Class, 0, len(ids)),
		Avail:   make(map[topology.NodeID]policy.Resources),
	}
	for _, id := range ids {
		a, err := rs.ctrl.Assignment(id)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", r, err)
		}
		prob.Classes = append(prob.Classes, a.Class)
	}
	for _, v := range rs.ctrl.Hosts() {
		prob.Avail[v] = s.capacity[v]
	}
	pl, err := core.SolveGreedy(prob)
	if err != nil {
		return nil, fmt.Errorf("shard: region %d solve: %w", r, err)
	}
	rep, err := rs.ctrl.ReOptimize(prob, pl, opts)
	if err != nil {
		return nil, fmt.Errorf("shard: region %d: %w", r, err)
	}
	return rep, nil
}

// ReOptimizeAll runs ReOptimizeRegion over every region concurrently and
// returns the per-region reports (nil where a region failed; errors are
// joined).
func (s *ShardedController) ReOptimizeAll(opts controller.ReoptOptions) ([]*controller.ReoptReport, error) {
	reps := make([]*controller.ReoptReport, len(s.regions))
	errs := make([]error, len(s.regions))
	_ = pool.RunIndexed(len(s.regions), s.workers, func(r int) error {
		reps[r], errs[r] = s.ReOptimizeRegion(r, opts)
		return nil
	})
	return reps, errors.Join(errs...)
}
