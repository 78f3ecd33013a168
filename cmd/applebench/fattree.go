package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Sizes of the FatTree-16 workloads at scale 1.
const (
	fatTreeK = 16
	// fatTreeIngressPods concentrates class ingresses on four pods, as
	// cmd/benchshard does: per-table state, not switch count, drives the
	// write path's cost.
	fatTreeIngressPods = 4
	// fatTreePreload classes are bulk-loaded and never removed; readers
	// walk only these.
	fatTreePreload = 40_000
	// fatTreeLag more classes are bulk-loaded behind them as the initial
	// churn window: every churn operation adds one class and removes the
	// one added fatTreeLag operations earlier, so the installed state
	// stays at fatTreePreload+fatTreeLag.
	fatTreeLag     = 1_000
	fatTreeChunk   = 2_048
	fatTreeProbes  = 32_000
	fatTreeWarmOps = 32
	// walkStride: one walk in this many is individually timed (and, in
	// the traced run, recorded as a span).
	walkStride = 64
	// walkBurst packets walked by one reader are one operation of
	// fattree_walk (about 20 ms).
	walkBurst = 4096
	// fatTreeAuditClasses bounds the end-of-run enforcement audit.
	fatTreeAuditClasses = 2_000
)

// probePacket is one pre-built packet of an installed class.
type probePacket struct {
	hdr     headerspace.Header
	ingress topology.NodeID
	chain   policy.Chain
}

// fatTree is the three FatTree-16 workloads: the same preloaded
// controller under churn (fattree_admit), under packet walks from two
// readers (fattree_walk), or under both at once (fattree_mixed). All
// classes carry a {Firewall} chain: multi-NF chains exhaust the global
// sub-class tag space near 1–2.5k classes, and the workloads are sized so
// that no admission is ever refused.
type fatTree struct {
	cfg                  config
	preload, lag, probeN int
	rng                  *rand.Rand
	layout               *topology.FatTreeLayout
	ctrl                 *controller.Controller
	// perm maps the bulk-loaded class IDs to structural coordinates, so
	// --seed changes which paths are admitted in which order.
	perm         []int
	next, oldest int // churn window: next ID to add, next to remove
	probes       []probePacket
	instNF       map[vnf.ID]policy.NF
	op           int64
	bulkS        float64 // wall time of the latest preload
}

func newFatTree(cfg config) *fatTree {
	scaled := func(n, floor int) int { return max(floor, int(float64(n)*cfg.scale)) }
	return &fatTree{
		cfg:     cfg,
		preload: scaled(fatTreePreload, 256),
		lag:     scaled(fatTreeLag, 16),
		probeN:  scaled(fatTreeProbes, 128),
	}
}

func (f *fatTree) readers() int {
	switch f.cfg.workload {
	case "fattree_walk":
		return min(2, runtime.NumCPU())
	case "fattree_mixed":
		return 1
	}
	return 0
}

func (f *fatTree) churns() bool { return f.cfg.workload != "fattree_walk" }

// class builds class id in closed form from structural coordinates
// (cmd/benchshard's generator): the path never needs a graph search.
func (f *fatTree) class(id int) core.Class {
	i := id
	if id < len(f.perm) {
		i = f.perm[id]
	}
	k, half := fatTreeK, fatTreeK/2
	srcPod := i % fatTreeIngressPods
	srcEdge := (i / fatTreeIngressPods) % half
	dstPod := (srcPod + 1 + i%(k-1)) % k
	dstEdge := (i / (k * half)) % half
	path, err := f.layout.Path(srcPod, srcEdge, dstPod, dstEdge, i+int(f.cfg.seed))
	if err != nil {
		panic(err) // coordinates are in range by construction
	}
	return core.Class{ID: core.ClassID(id), Path: path, Chain: policy.Chain{policy.Firewall}, RateMbps: 1}
}

func (f *fatTree) setup(tr *tracer) error {
	f.rng = rand.New(rand.NewSource(f.cfg.seed))
	var err error
	if err = tr.call("topology.build", -1, 0, func() (err error) {
		f.layout, err = topology.FatTree(fatTreeK)
		return err
	}); err != nil {
		return err
	}
	total := f.preload + f.lag
	f.perm = f.rng.Perm(total)
	if f.ctrl, f.bulkS, err = f.load(total, tr, nil); err != nil {
		return err
	}
	f.oldest, f.next = f.preload, total

	f.instNF = make(map[vnf.ID]policy.NF)
	for _, id := range f.ctrl.Orchestrator().Instances() {
		if f.instNF[id], err = f.ctrl.InstanceNF(id); err != nil {
			return err
		}
	}
	f.probes = f.probes[:0]
	for len(f.probes) < f.probeN {
		cl := f.class(f.rng.Intn(f.preload))
		hdr, err := f.ctrl.FlowHeader(cl.ID, f.rng.Uint32())
		if err != nil {
			return err
		}
		f.probes = append(f.probes, probePacket{hdr, cl.Path[0], cl.Chain})
	}

	// Warm-up: a short burst of what measure will do.
	p := &phase{weight: 1, parallel: 1}
	if f.churns() {
		for i := 0; i < fatTreeWarmOps; i++ {
			f.churn(p, nil, false)
		}
	}
	if f.readers() > 0 {
		for i := 0; i < len(f.probes); i++ {
			f.walk(&f.probes[i], p, nil, -1, i%walkStride == 0)
		}
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed: %v", p.failed, p.attempted, p.notes)
	}
	return nil
}

// load builds a controller and bulk-loads classes [0,total) in chunks.
// pause, when non-nil, is called with the installed count before every
// chunk (the admission-growth probe hooks in there).
func (f *fatTree) load(total int, tr *tracer, pause func(c *controller.Controller, installed int)) (*controller.Controller, float64, error) {
	ctrl, err := controller.New(controller.Config{
		Topology: f.layout.Graph,
		Clock:    sim.New(),
		Seed:     f.cfg.seed,
		// Hosts are never the constraint: the workload is about rule
		// state, and no admission may be refused.
		HostResources: policy.Resources{Cores: 1 << 20, MemoryMB: 1 << 30},
	})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	batch := make([]core.Class, 0, fatTreeChunk)
	for lo := 0; lo < total; lo += fatTreeChunk {
		if pause != nil {
			pause(ctrl, lo)
		}
		batch = batch[:0]
		for id := lo; id < min(lo+fatTreeChunk, total); id++ {
			batch = append(batch, f.class(id))
		}
		if err := tr.call("controller.add_batch", -1, 0, func() error {
			return ctrl.AddClassBatch(batch, controller.BatchOptions{Workers: 1})
		}); err != nil {
			return nil, 0, err
		}
	}
	return ctrl, time.Since(start).Seconds(), nil
}

func (f *fatTree) measure(b budget, tr *tracer) (*phase, error) {
	p := &phase{weight: 1, parallel: 1}
	mem := markMem()
	start := time.Now()
	root := tr.begin("phase", -1, 0)

	// Readers walk packets until the writer is done, or, without a
	// writer, until the budget is spent. Each has its own tally and
	// tracer; both are merged after the join.
	var wg sync.WaitGroup
	var stop atomic.Bool
	readers := make([]*phase, f.readers())
	tracers := make([]*tracer, len(readers))
	for r := range readers {
		readers[r], tracers[r] = &phase{weight: 1, parallel: 1}, tr.fork()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f.read(r, readers[r], tracers[r], b, start, &stop)
		}(r)
	}
	if f.churns() {
		for !b.spent(start, len(p.opMs)) {
			f.churn(p, tr, len(readers) == 0)
		}
		stop.Store(true)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(root)

	for r, rp := range readers {
		tr.adopt(tracers[r], root)
		p.walkUs = append(p.walkUs, rp.walkUs...)
		p.fwdUs = append(p.fwdUs, rp.fwdUs...)
		if !f.churns() {
			// Without a writer the operation is a reader's burst.
			p.opMs = append(p.opMs, rp.opMs...)
			p.weight, p.parallel = walkBurst, float64(len(readers))
		}
		p.merge(rp.checks)
		p.walks += rp.walks
		p.hops += rp.hops
		p.forwardNs += rp.forwardNs
		p.readerWallNs += float64(wall)
		p.readerPktsPerS += float64(rp.walks) / wall.Seconds()
	}
	mem.since(p)
	mem.allocPerKop(p, p.work())
	p.tcamRules = float64(tableEntries(f.ctrl))
	p.instances = float64(len(f.ctrl.Orchestrator().Instances()))
	return p, nil
}

// churn is one write operation: admit a new class, then remove the class
// admitted lag operations earlier. The new class's first packet is walked
// afterwards (outside the operation time); it counts as a walk sample
// only when no reader supplies them.
func (f *fatTree) churn(p *phase, tr *tracer, sampleWalk bool) {
	f.op++
	cl := f.class(f.next)
	var before counts
	if tr != nil {
		before = readCounts()
	}
	// Allocations are metered only while no reader goroutine allocates.
	meter := p.addAllocs.when(tr != nil && sampleWalk)
	t0 := time.Now()
	root := tr.begin("op", -1, f.op)
	meter.begin()
	p.check(tr.call("controller.add_class", root, f.op, func() error { return f.ctrl.AddClass(cl) }), "add class %d", cl.ID)
	meter.end()
	p.check(tr.call("controller.remove_class", root, f.op, func() error {
		txn := f.ctrl.Begin()
		txn.StageRemove(core.ClassID(f.oldest))
		return txn.Commit(controller.TxnOptions{})
	}), "remove class %d", f.oldest)
	tr.end(root)
	p.opMs = append(p.opMs, float64(time.Since(t0))/1e6)
	if tr != nil {
		p.c.addDelta(readCounts(), before)
	}
	f.next++
	f.oldest++

	// The class's first packet. A churn class may have been given a new
	// instance, which only the writer goroutine may look up, so this goes
	// through walkClass and not through walk.
	walkClass(f.ctrl, cl, f.rng.Uint32(), p, tr, root, f.op, sampleWalk)
}

// read is one reader goroutine's loop over its share of the probes, in
// bursts of walkBurst packets. A burst's wall time per packet is one walk
// sample, so every packet the reader walked counts, not only the timed
// ones; the whole burst is one operation sample of fattree_walk.
func (f *fatTree) read(r int, p *phase, tr *tracer, b budget, start time.Time, stop *atomic.Bool) {
	i := r * len(f.probes) / max(1, f.readers())
	t0 := time.Now()
	for bursts := 0; !stop.Load() && (f.churns() || !b.spent(start, bursts)); bursts++ {
		for n := 0; n < walkBurst; n++ {
			f.walk(&f.probes[i], p, tr, -1, n%walkStride == 0)
			if i++; i == len(f.probes) {
				i = 0
			}
		}
		burst := float64(time.Since(t0))
		p.opMs = append(p.opMs, burst/1e6)
		p.walkUs = append(p.walkUs, burst/walkBurst/1e3)
		t0 = time.Now()
	}
}

// walk forwards one probe packet of a preloaded class and checks
// delivery, the final host tag and the visited NF sequence against the
// class chain (instNF is read-only after set-up, so readers may use it).
// When timed, the walk is a sample of Forward alone, and a span in the
// traced run.
func (f *fatTree) walk(pp *probePacket, p *phase, tr *tracer, parent int32, timed bool) {
	var trace controller.Trace
	var err error
	if timed {
		id := tr.begin("controller.forward", parent, 0)
		t0 := time.Now()
		trace, err = f.ctrl.Forward(pp.hdr, pp.ingress)
		d := time.Since(t0)
		tr.end(id)
		p.fwdUs = append(p.fwdUs, float64(d)/1e3)
		p.forwardNs += float64(d)
	} else {
		trace, err = f.ctrl.Forward(pp.hdr, pp.ingress)
	}
	p.walks++
	p.hops += len(trace.Switches)
	if err == nil {
		err = checkWalk(trace, pp.chain, func(inst vnf.ID) policy.NF { return f.instNF[inst] })
	}
	if err != nil {
		p.check(err, "packet from %s at switch %d", headerspace.FormatIPv4(pp.hdr.SrcIP), pp.ingress)
	} else {
		p.attempted++ // not through check: its arguments would allocate on every packet
	}
}

func (f *fatTree) verify() checks {
	var c checks
	c.check(f.ctrl.CheckTables(), "tables")
	ids := f.ctrl.Classes()
	f.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:min(len(ids), fatTreeAuditClasses)] {
		c.check(f.ctrl.CheckClassEnforcement(id), "class %d", id)
	}
	var window error
	if len(ids) != f.preload+f.lag {
		window = fmt.Errorf("%d classes installed, want %d", len(ids), f.preload+f.lag)
	}
	c.check(window, "churn window")
	return c
}

func (f *fatTree) probe(out map[string]float64) {
	out["controller.bulk_classes_per_s"] = ratio(float64(f.preload+f.lag), f.bulkS)
	out["orchestrator.instances"] = float64(len(f.ctrl.Orchestrator().Instances()))
	probeDataPlane(f.ctrl, f.probes, out)
	if f.cfg.workload == "fattree_admit" {
		out["controller.admit_growth_ratio"] = f.admitGrowth()
	}
}

// admitGrowth is ROADMAP item 2's measurement: the median AddClass time
// with the full preload installed over the median with one eighth of it
// installed. A separate controller is loaded for it, pausing twice; every
// timed class is removed again so the load itself is unchanged.
func (f *fatTree) admitGrowth() float64 {
	samples := max(16, int(300*f.cfg.scale))
	small := (f.preload / 8) / fatTreeChunk * fatTreeChunk
	large := (f.preload + f.lag) / fatTreeChunk * fatTreeChunk
	medians := make(map[int]float64)
	extra := f.next + 1_000_000/2 // IDs far from both the preload and the churn window
	_, _, err := f.load(f.preload+f.lag, nil, func(c *controller.Controller, installed int) {
		if installed != small && installed != large {
			return
		}
		var us []float64
		for i := 0; i < samples; i++ {
			cl := f.class(extra)
			extra++
			t0 := time.Now()
			if c.AddClass(cl) != nil {
				continue
			}
			us = append(us, float64(time.Since(t0))/1e3)
			txn := c.Begin()
			txn.StageRemove(cl.ID)
			_ = txn.Commit(controller.TxnOptions{}) // the probe controller is discarded either way
		}
		medians[installed] = median(us)
	})
	if err != nil {
		return 0
	}
	return ratio(medians[large], medians[small])
}
