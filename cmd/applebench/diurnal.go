package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// diurnalScenarioSeed pins the generated scenarios of diurnal_reopt. The
// loop's cost depends strongly on the drawn traffic and chains (GEANT's
// ReOptimize takes 13 to 67 ms per day across scenario seeds), and other
// draws run out of host capacity under failover after a few days, which a
// benchmark must not count as its own failures. --seed picks the probe
// headers only.
const diurnalScenarioSeed = 1

// diurnalMaxLaps ends a phase early. Failover state is not perfectly
// reclaimed (AS-3679 runs out of host cores after 58 replayed days at the
// pinned seed), so one controller generation replays at most this many.
const diurnalMaxLaps = 40

// diurnalMeterLaps is how many days every phase replays at least, and over
// which alloc_mb_per_kop is taken (4 to 9 s of the 10 s a run measures).
const diurnalMeterLaps = 8

// diurnalHeadroom is how much larger the physical hosts are than what the
// placement problem plans with. Failover instances take cores the LP does
// not know about, and without spare cores ReOptimize is refused once they
// pile up on a host (AS-3679, switch 7, after a few days).
const diurnalHeadroom = 2

// diurnalProbes is how many installed classes per network get a packet
// walked after every tick.
const diurnalProbes = 8

// diurnal is the diurnal_reopt workload. One operation is a tick: each of
// the three long-lived controllers takes the next hourly snapshot of its
// series — warm Place, ReOptimize, Observe, clock advance. A lap is one
// day (24 ticks); phases run whole laps so every run measures the same
// snapshots.
type diurnal struct {
	cfg  config
	rng  *rand.Rand
	nets []*diurnalNet
	hour int
	op   int64
}

type diurnalNet struct {
	*deployment
	eng *core.IncrementalEngine
	// twin has no Dynamic Handler and receives the same placements: the
	// loss the handler must not exceed (Fig 12).
	twin *controller.Controller
}

func (d *diurnal) setup(tr *tracer) error {
	d.rng = rand.New(rand.NewSource(d.cfg.seed))
	scs, err := buildPaperScenarios(diurnalScenarioSeed, d.cfg.scale, tr)
	if err != nil {
		return err
	}
	d.nets = d.nets[:0]
	for _, sc := range scs {
		if sc.Multipath {
			// UNIV1's series is a one-second trace replay, not a diurnal
			// cycle, and its 8-core hosts at the two core switches run out
			// of room when a replayed day wraps around.
			continue
		}
		n, err := newDiurnalNet(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		d.nets = append(d.nets, n)
	}
	probeGenerators(tr)
	// Warm-up: the first day, which holds the one cold solve and the full
	// install of every network.
	p := &phase{weight: 1, parallel: 1}
	for t := 0; t < paperSnapshots; t++ {
		if err := d.tick(p, nil); err != nil {
			return err
		}
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed: %v", p.failed, p.attempted, p.notes)
	}
	return nil
}

func newDiurnalNet(sc *paperScenario) (*diurnalNet, error) {
	base, err := sc.MeanProblem()
	if err != nil {
		return nil, err
	}
	// Chains lose their NAT: header-rewriting classes draw sub-class tags
	// from the 32 global tags per host, and re-optimising them under
	// failover exhausts that space within a few days ("no conflict-free
	// global tag"); see README, findings.
	for i := range base.Classes {
		var ch policy.Chain
		for _, nf := range base.Classes[i].Chain {
			if nf != policy.NAT {
				ch = append(ch, nf)
			}
		}
		if len(ch) == 0 {
			ch = policy.Chain{policy.Firewall}
		}
		base.Classes[i].Chain = ch
	}
	n := &diurnalNet{deployment: &deployment{sc: sc, prob: base, clock: sim.New()}}
	if n.ctrl, err = newPaperController(sc.Scenario, n.clock, diurnalHeadroom); err != nil {
		return nil, err
	}
	if n.handler, err = controller.NewDynamicHandler(n.ctrl); err != nil {
		return nil, err
	}
	if n.eng, err = core.NewIncrementalEngine(base, core.IncrementalOptions{}); err != nil {
		return nil, err
	}
	if n.twin, err = newPaperController(sc.Scenario, sim.New(), diurnalHeadroom); err != nil {
		return nil, err
	}
	return n, nil
}

func (d *diurnal) measure(b budget, tr *tracer) (*phase, error) {
	p := &phase{weight: 1, parallel: 1}
	mem := markMem()
	start := time.Now()
	// Allocation is metered over the same days of every run, however many
	// more the host gets through: the first days after set-up allocate up to
	// 1.5 times what later ones do, so a mean over the phase would follow
	// the host's speed.
	meterLaps := diurnalMeterLaps
	if b.units > 0 {
		meterLaps = b.units
	}
	for laps := 0; laps < meterLaps || (!b.spent(start, laps) && laps < diurnalMaxLaps); laps++ {
		p.instances = 0
		for t := 0; t < paperSnapshots; t++ {
			if err := d.tick(p, tr); err != nil {
				return nil, err
			}
		}
		if laps+1 == meterLaps {
			mem.allocPerKop(p, float64(meterLaps*paperSnapshots))
		}
	}
	mem.since(p)
	for _, n := range d.nets {
		p.tcamRules += float64(tableEntries(n.ctrl))
	}
	return p, nil
}

// tick advances every network by one snapshot. The operation time covers
// Place, ReOptimize, Observe and the clock advance of each network; the
// probes and the loss comparison against the twin are outside it.
func (d *diurnal) tick(p *phase, tr *tracer) error {
	d.op++
	d.hour = (d.hour + 1) % paperSnapshots
	var opTime time.Duration
	for _, n := range d.nets {
		var before counts
		if tr != nil {
			before = readCounts()
		}
		t0 := time.Now()
		root := tr.begin("op", -1, d.op)
		rates := classRates(n.prob, n.sc.Series[d.hour%len(n.sc.Series)])
		var pl *core.Placement
		var st core.PlaceStats
		err := tr.call("core.place", root, d.op, func() (err error) {
			pl, st, err = n.eng.Place(rates)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: place: %w", n.sc.Name, err)
		}
		p.placeCalls++
		if st.WarmAccepted {
			p.warmAccepted++
		}
		p.instances += float64(pl.TotalInstances())
		prob := probWithRates(n.prob, rates)
		meter := p.reoptAllocs.when(tr != nil)
		meter.begin()
		p.check(tr.call("controller.reoptimize", root, d.op, func() error {
			_, err := n.ctrl.ReOptimize(prob, pl, controller.ReoptOptions{Reap: true})
			return err
		}), "%s hour %d: reoptimize", n.sc.Name, d.hour)
		meter.end()
		t1 := time.Now()
		var transitions int
		p.check(tr.call("controller.observe", root, d.op, func() (err error) {
			transitions, err = n.handler.Observe(rates)
			return err
		}), "%s hour %d: observe", n.sc.Name, d.hour)
		p.observeNs += float64(time.Since(t1))
		p.transitions += transitions
		if err := n.clock.AdvanceTo(n.clock.Now() + time.Duration(n.sc.SnapshotSeconds)*time.Second); err != nil {
			return err
		}
		tr.end(root)
		opTime += time.Since(t0)
		if tr != nil {
			p.c.addDelta(readCounts(), before)
		}

		d.walkInstalled(n, p, tr, root)
		d.compareLoss(n, prob, pl, rates, p)
	}
	p.opMs = append(p.opMs, float64(opTime)/1e6)
	return nil
}

// walkInstalled forwards one packet for a few classes that are installed
// right now (a class whose snapshot rate is zero is not).
func (d *diurnal) walkInstalled(n *diurnalNet, p *phase, tr *tracer, root int32) {
	classes := n.prob.Classes
	for k := 0; k < diurnalProbes; k++ {
		cl := classes[d.rng.Intn(len(classes))]
		a, err := n.ctrl.Assignment(cl.ID)
		if err != nil {
			continue
		}
		walkClass(n.ctrl, a.Class, d.rng.Uint32(), p, tr, root, d.op, true)
	}
}

// compareLoss applies the same placement to the handler-less twin and
// checks that, for this snapshot, loss with the handler does not exceed
// loss without it. It is part of the correctness gate, so it runs in the
// untraced run too, outside the operation time.
func (d *diurnal) compareLoss(n *diurnalNet, prob *core.Problem, pl *core.Placement, rates map[core.ClassID]float64, p *phase) {
	_, err := n.twin.ReOptimize(prob, pl, controller.ReoptOptions{Reap: true})
	var with, without float64
	if err == nil {
		with, err = n.ctrl.LossRate(rates)
	}
	if err == nil {
		without, err = n.twin.LossRate(rates)
	}
	if err == nil && with > without+1e-9 {
		err = fmt.Errorf("loss %.6f with the handler, %.6f without", with, without)
	}
	p.check(err, "%s hour %d: loss comparison", n.sc.Name, d.hour)
	if err == nil {
		p.lossSamples++
		p.lossWith += with
		p.lossWithout += without
	}
}

// probWithRates copies the base problem with each class's rate replaced
// by its snapshot value, dropping classes without traffic: the placement
// omits them and ReOptimize removes their installed state.
func probWithRates(base *core.Problem, rates map[core.ClassID]float64) *core.Problem {
	out := *base
	out.Classes = make([]core.Class, 0, len(base.Classes))
	for _, cl := range base.Classes {
		if r := rates[cl.ID]; r > 0 {
			cl.RateMbps = r
			out.Classes = append(out.Classes, cl)
		}
	}
	return &out
}

func (d *diurnal) verify() checks {
	var c checks
	for _, n := range d.nets {
		n.audit(&c, false)
	}
	return c
}

func (d *diurnal) probe(out map[string]float64) {
	n := d.nets[len(d.nets)-1]
	var installed []core.Class
	for _, id := range n.ctrl.Classes() {
		if a, err := n.ctrl.Assignment(id); err == nil {
			installed = append(installed, a.Class)
		}
	}
	probeDataPlane(n.ctrl, classProbes(n.ctrl, installed, d.rng), out)
}
