// Package orchestrator implements APPLE's Resource Orchestrator (§III,
// §VII): it owns the APPLE hosts, launches and cancels VNF instances, and
// reports per-switch available resources (A_v) to the Optimization Engine.
//
// The prototype drives OpenStack + OpenDaylight + Xen + ClickOS; this
// package reproduces that stack's *timing behaviour* from the paper's own
// measurements: the 10-step ClickOS initiation pipeline of Fig 5 where
// orchestration (steps 1–5) dominates and total boot takes 3.9–4.6 s
// (§VIII-B), 70 ms forwarding-rule installation, and 30 ms ClickOS
// reconfiguration (§VIII-D).
package orchestrator

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/trace"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Latencies are the measured prototype timings.
type Latencies struct {
	// RuleInstall is the time to install forwarding rules via the
	// controller's REST API (70 ms in §VIII-D).
	RuleInstall time.Duration
	// Reconfigure is the time to repurpose an existing ClickOS VM (30 ms
	// in §VIII-D).
	Reconfigure time.Duration
	// BootMin and BootMax bound the orchestrated VM boot (3.9–4.6 s in
	// §VIII-B; the 30 ms bare-Xen ClickOS boot is buried in step 6).
	BootMin, BootMax time.Duration
}

// DefaultLatencies returns the paper's measurements.
func DefaultLatencies() Latencies {
	return Latencies{
		RuleInstall: 70 * time.Millisecond,
		Reconfigure: 30 * time.Millisecond,
		BootMin:     3900 * time.Millisecond,
		BootMax:     4600 * time.Millisecond,
	}
}

// validate checks internal consistency.
func (l Latencies) validate() error {
	if l.RuleInstall <= 0 || l.Reconfigure <= 0 {
		return fmt.Errorf("orchestrator: non-positive latency %+v", l)
	}
	if l.BootMin <= 0 || l.BootMax < l.BootMin {
		return fmt.Errorf("orchestrator: bad boot range [%v,%v]", l.BootMin, l.BootMax)
	}
	return nil
}

// Step is one stage of the Fig 5 ClickOS initiation pipeline.
type Step struct {
	Seq  int
	Name string
	// Share is the fraction of total boot time this step consumes.
	Share float64
}

// BootSteps returns the Fig 5 pipeline. The shares encode the paper's
// finding that "Openstack and Opendaylight consume substantial time to
// orchestrate and prepare the networking before actually initiating a new
// VM (Step 1 – Step 5)".
func BootSteps() []Step {
	return []Step{
		{1, "APPLE requests VM via OpenStack REST API", 0.08},
		{2, "OpenStack notifies OpenDaylight to prepare networking", 0.22},
		{3, "OpenDaylight creates OVS port via OVSDB RPC", 0.22},
		{4, "Linux bridge added between Xen VM and Open vSwitch", 0.14},
		{5, "OpenDaylight returns vNIC networking configuration", 0.14},
		{6, "OpenStack creates VM via libvirt", 0.09},
		{7, "VM fetches and installs ClickOS image", 0.06},
		{8, "OpenStack notifies APPLE of VM completion", 0.01},
		{9, "APPLE configures ClickOS into the desired VNF", 0.01},
		{10, "APPLE installs vSwitch forwarding rules via OpenDaylight", 0.03},
	}
}

// Orchestrator manages hosts and instance lifecycles on a simulation
// clock.
type Orchestrator struct {
	clock    *sim.Simulation
	lat      Latencies
	rng      *rand.Rand                       // confined to the simulation loop
	hosts    map[topology.NodeID][]*host.Host // confined to the simulation loop
	hostOf   map[vnf.ID]*host.Host            // confined to the simulation loop
	nextSeq  int                              // confined to the simulation loop
	faults   *faultState
	counters *metrics.Counters
	// inflight marks instances with a lifecycle callback still scheduled
	// (boot completion or reconfiguration). Controllers use it to
	// distinguish legitimately transitional state from leaks.
	// It is confined to the simulation loop.
	inflight map[vnf.ID]bool
	// crashed remembers instances lost to host crashes, so callers can
	// tell "never existed" from "died in a crash".
	// It is confined to the simulation loop.
	crashed map[vnf.ID]bool
	// tracer journals lifecycle events; nil (the default) disables
	// tracing with no allocation. Set once before the simulation runs.
	// It is confined to the simulation loop.
	tracer *trace.Recorder
}

// New creates an orchestrator driving instances on the given simulation
// clock.
func New(clock *sim.Simulation, lat Latencies, seed int64) (*Orchestrator, error) {
	if clock == nil {
		return nil, errors.New("orchestrator: nil simulation")
	}
	if err := lat.validate(); err != nil {
		return nil, err
	}
	return &Orchestrator{
		clock:    clock,
		lat:      lat,
		rng:      rand.New(rand.NewSource(seed)),
		hosts:    make(map[topology.NodeID][]*host.Host),
		hostOf:   make(map[vnf.ID]*host.Host),
		counters: metrics.NewCounters(),
		inflight: make(map[vnf.ID]bool),
		crashed:  make(map[vnf.ID]bool),
	}, nil
}

// Latencies returns the configured timings.
func (o *Orchestrator) Latencies() Latencies { return o.lat }

// Counters returns the lifecycle outcome counters (launches, boots,
// injected failures, cancels, crashes).
func (o *Orchestrator) Counters() *metrics.Counters { return o.counters }

// SetTracer attaches a lifecycle-event journal; nil detaches it. Call
// before the simulation runs — lifecycle callbacks capture it.
func (o *Orchestrator) SetTracer(r *trace.Recorder) { o.tracer = r }

// InjectFaults installs a fault plan and schedules its host crashes on
// the simulation clock. Call it once, before running the simulation; a
// zero plan is accepted and perturbs nothing.
func (o *Orchestrator) InjectFaults(plan FaultPlan) error {
	if err := plan.validate(); err != nil {
		return err
	}
	if o.faults != nil {
		return errors.New("orchestrator: fault plan already installed")
	}
	o.faults = newFaultState(plan)
	for _, c := range plan.Crashes {
		c := c
		if _, err := o.clock.At(c.At, func(time.Duration) {
			o.Crash(c.Switch)
		}); err != nil {
			return fmt.Errorf("orchestrator: scheduling crash at %v: %w", c.At, err)
		}
	}
	return nil
}

// InFlight reports whether a lifecycle callback (boot completion or
// reconfiguration) is still scheduled for the instance.
func (o *Orchestrator) InFlight(id vnf.ID) bool { return o.inflight[id] }

// Crashed reports whether the instance was lost to a host crash.
func (o *Orchestrator) Crashed(id vnf.ID) bool { return o.crashed[id] }

// Known reports whether the orchestrator currently manages the instance.
func (o *Orchestrator) Known(id vnf.ID) bool {
	_, ok := o.hostOf[id]
	return ok
}

// Crash kills every host at switch v: all attached instances fail and
// their resources are freed (the machine reboots empty). In-flight boot
// and reconfigure callbacks for the lost instances still fire — as
// ErrAborted failures — preserving the exactly-one-callback contract.
func (o *Orchestrator) Crash(v topology.NodeID) []vnf.ID {
	var lost []vnf.ID
	for _, h := range o.hosts[v] {
		o.counters.Inc(CtrHostCrashes)
		for _, id := range h.Crash() {
			delete(o.hostOf, id)
			o.crashed[id] = true
			o.counters.Inc(CtrCrashedInstances)
			lost = append(lost, id)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	if o.tracer.Enabled() {
		for _, id := range lost {
			o.tracer.Emit(trace.Ev(trace.KindVNFCrash).WithNode(int64(v)).WithInst(string(id)))
		}
	}
	return lost
}

// AddHost registers an APPLE host.
func (o *Orchestrator) AddHost(h *host.Host) error {
	if h == nil {
		return errors.New("orchestrator: nil host")
	}
	for _, existing := range o.hosts[h.Switch()] {
		if existing.Name() == h.Name() {
			return fmt.Errorf("orchestrator: host %q already registered", h.Name())
		}
	}
	o.hosts[h.Switch()] = append(o.hosts[h.Switch()], h)
	return nil
}

// Available is the A_v poll: total headroom across the hosts at switch v.
func (o *Orchestrator) Available(v topology.NodeID) policy.Resources {
	var total policy.Resources
	for _, h := range o.hosts[v] {
		total = total.Add(h.Available())
	}
	return total
}

// HostOf returns the host running an instance.
func (o *Orchestrator) HostOf(id vnf.ID) (*host.Host, error) {
	h, ok := o.hostOf[id]
	if !ok {
		return nil, fmt.Errorf("orchestrator: unknown instance %s", id)
	}
	return h, nil
}

// bootTime draws an orchestrated boot duration from the measured range.
func (o *Orchestrator) bootTime() time.Duration {
	span := o.lat.BootMax - o.lat.BootMin
	if span == 0 {
		return o.lat.BootMin
	}
	return o.lat.BootMin + time.Duration(o.rng.Int63n(int64(span)))
}

// pickHost selects the host at v with the most free cores that fits need.
func (o *Orchestrator) pickHost(v topology.NodeID, need policy.Resources) (*host.Host, error) {
	var best *host.Host
	for _, h := range o.hosts[v] {
		if !need.Fits(h.Available()) {
			continue
		}
		if best == nil || h.Available().Cores > best.Available().Cores {
			best = h
		}
	}
	if best == nil {
		return nil, fmt.Errorf("orchestrator: no host at switch %d fits %v", v, need)
	}
	return best, nil
}

// Launch starts a new VNF instance of type nf at switch v through the full
// orchestrated pipeline. Resources are reserved immediately (the VM
// exists from step 6), but the instance only reaches Running after the
// boot delay. The returned ID is usable immediately for bookkeeping.
//
// Callback contract: when Launch returns nil, exactly one of onReady or
// onFail fires later on the simulation clock — onReady at boot
// completion, onFail if the boot fails (ErrBootFailed), or if the
// instance was cancelled or lost to a host crash before the boot
// completed (ErrAborted). Either callback may be nil.
func (o *Orchestrator) Launch(nf policy.NF, v topology.NodeID, onReady func(*vnf.Instance, *host.Host), onFail func(vnf.ID, error)) (vnf.ID, error) {
	spec, err := policy.SpecOf(nf)
	if err != nil {
		return "", fmt.Errorf("orchestrator: %w", err)
	}
	h, err := o.pickHost(v, spec.Resources())
	if err != nil {
		return "", err
	}
	o.nextSeq++
	id := vnf.ID(fmt.Sprintf("%s-%d@%s", nf, o.nextSeq, h.Name()))
	inst, err := vnf.New(id, nf)
	if err != nil {
		return "", fmt.Errorf("orchestrator: %w", err)
	}
	if _, err := h.Attach(inst); err != nil {
		return "", fmt.Errorf("orchestrator: %w", err)
	}
	o.hostOf[id] = h
	o.inflight[id] = true
	o.counters.Inc(CtrLaunches)
	boot := o.bootTime()
	var bootErr error
	if o.faults != nil {
		o.faults.launches++
		n := o.faults.launches
		p := o.faults.plan
		if o.faults.fires(p.BootFailProb, p.BootFailOn, n) {
			bootErr = ErrBootFailed
		} else if o.faults.fires(p.BootTimeoutProb, p.BootTimeoutOn, n) {
			boot = time.Duration(float64(boot) * o.faults.timeoutFactor())
			o.counters.Inc(CtrBootTimeouts)
		}
	}
	if o.tracer.Enabled() {
		o.tracer.Emit(trace.Ev(trace.KindVNFLaunch).WithNode(int64(v)).WithInst(string(id)).WithVal(int64(boot)))
	}
	if _, err := o.clock.After(boot, func(time.Duration) {
		delete(o.inflight, id)
		if inst.State() != vnf.StateBooting {
			// Cancelled or crashed while booting: the callback still
			// fires so the caller can release its pending slot.
			o.counters.Inc(CtrAborts)
			if o.tracer.Enabled() {
				o.tracer.Emit(trace.Ev(trace.KindVNFAbort).WithNode(int64(v)).WithInst(string(id)).WithErr(ErrAborted))
			}
			if onFail != nil {
				onFail(id, ErrAborted)
			}
			return
		}
		if bootErr != nil {
			// The pipeline died mid-boot; the VM never comes up and its
			// reserved resources are released.
			_ = inst.SetState(vnf.StateFailed)
			_ = h.Detach(id)
			delete(o.hostOf, id)
			o.counters.Inc(CtrBootFailures)
			if o.tracer.Enabled() {
				o.tracer.Emit(trace.Ev(trace.KindVNFBootFail).WithNode(int64(v)).WithInst(string(id)).WithErr(bootErr))
			}
			if onFail != nil {
				onFail(id, bootErr)
			}
			return
		}
		if err := inst.SetState(vnf.StateRunning); err != nil {
			// Unreachable: Booting→Running is always legal.
			panic(err)
		}
		o.counters.Inc(CtrBoots)
		if o.tracer.Enabled() {
			o.tracer.Emit(trace.Ev(trace.KindVNFBoot).WithNode(int64(v)).WithInst(string(id)))
		}
		if onReady != nil {
			onReady(inst, h)
		}
	}); err != nil {
		// Unwind the reservation: without this the instance would stay
		// attached (holding cores) with no callback ever coming.
		delete(o.inflight, id)
		delete(o.hostOf, id)
		_ = h.Detach(id)
		return "", fmt.Errorf("orchestrator: scheduling boot completion: %w", err)
	}
	return id, nil
}

// PlaceNow provisions an instance synchronously in the Running state —
// the proactive installation path the Optimization Engine uses when
// placing VNFs ahead of traffic (§III: "proactively installs VNF instances
// for potential flows, in order to avoid long waiting time for booting").
func (o *Orchestrator) PlaceNow(nf policy.NF, v topology.NodeID) (*vnf.Instance, *host.Host, error) {
	spec, err := policy.SpecOf(nf)
	if err != nil {
		return nil, nil, fmt.Errorf("orchestrator: %w", err)
	}
	h, err := o.pickHost(v, spec.Resources())
	if err != nil {
		return nil, nil, err
	}
	o.nextSeq++
	id := vnf.ID(fmt.Sprintf("%s-%d@%s", nf, o.nextSeq, h.Name()))
	inst, err := vnf.New(id, nf)
	if err != nil {
		return nil, nil, fmt.Errorf("orchestrator: %w", err)
	}
	if err := inst.SetState(vnf.StateRunning); err != nil {
		return nil, nil, fmt.Errorf("orchestrator: %w", err)
	}
	if _, err := h.Attach(inst); err != nil {
		return nil, nil, fmt.Errorf("orchestrator: %w", err)
	}
	o.hostOf[id] = h
	if o.tracer.Enabled() {
		o.tracer.Emit(trace.Ev(trace.KindVNFPlace).WithNode(int64(v)).WithInst(string(id)))
	}
	return inst, h, nil
}

// ReconfigureIdle finds an idle (zero offered load) running ClickOS
// instance at switch v and repurposes it into nf within the 30 ms
// reconfiguration window — the fast-failover path of §VIII-D.
//
// Callback contract: when ReconfigureIdle returns nil, exactly one of
// onReady or onFail fires later on the simulation clock — onFail if the
// reconfiguration fails (ErrReconfigureFailed; the instance reverts to
// its previous NF type) or the instance was lost before the window ended
// (ErrAborted). Either callback may be nil.
func (o *Orchestrator) ReconfigureIdle(nf policy.NF, v topology.NodeID, onReady func(*vnf.Instance, *host.Host), onFail func(vnf.ID, error)) (vnf.ID, error) {
	spec, err := policy.SpecOf(nf)
	if err != nil {
		return "", fmt.Errorf("orchestrator: %w", err)
	}
	if !spec.ClickOS {
		return "", fmt.Errorf("orchestrator: %v is not ClickOS-based; reconfiguration unavailable", nf)
	}
	for _, h := range o.hosts[v] {
		for _, inst := range h.Instances() {
			if !inst.Spec().ClickOS || inst.State() != vnf.StateRunning {
				continue
			}
			if inst.NF() == nf || inst.Offered() > 0 {
				continue
			}
			oldNF := inst.NF()
			if err := inst.Reconfigure(nf); err != nil {
				return "", fmt.Errorf("orchestrator: %w", err)
			}
			id := inst.ID()
			var reconfErr error
			if o.faults != nil {
				o.faults.reconfs++
				p := o.faults.plan
				if o.faults.fires(p.ReconfigureFailProb, p.ReconfigureFailOn, o.faults.reconfs) {
					reconfErr = ErrReconfigureFailed
				}
			}
			o.counters.Inc(CtrReconfigures)
			o.inflight[id] = true
			if o.tracer.Enabled() {
				o.tracer.Emit(trace.Ev(trace.KindVNFReconfigure).WithNode(int64(v)).WithInst(string(id)))
			}
			h := h
			if _, err := o.clock.After(o.lat.Reconfigure, func(time.Duration) {
				delete(o.inflight, id)
				if inst.State() != vnf.StateRunning {
					// Crashed or cancelled inside the window.
					o.counters.Inc(CtrAborts)
					if o.tracer.Enabled() {
						o.tracer.Emit(trace.Ev(trace.KindVNFAbort).WithNode(int64(v)).WithInst(string(id)).WithErr(ErrAborted))
					}
					if onFail != nil {
						onFail(id, ErrAborted)
					}
					return
				}
				if reconfErr != nil {
					// The reconfiguration did not take: revert to the
					// previous ClickOS image.
					_ = inst.Reconfigure(oldNF)
					o.counters.Inc(CtrReconfFailures)
					if o.tracer.Enabled() {
						o.tracer.Emit(trace.Ev(trace.KindVNFReconfFail).WithNode(int64(v)).WithInst(string(id)).WithErr(reconfErr))
					}
					if onFail != nil {
						onFail(id, reconfErr)
					}
					return
				}
				if o.tracer.Enabled() {
					o.tracer.Emit(trace.Ev(trace.KindVNFReconfDone).WithNode(int64(v)).WithInst(string(id)))
				}
				if onReady != nil {
					onReady(inst, h)
				}
			}); err != nil {
				// Unwind the speculative reconfigure before reporting.
				_ = inst.Reconfigure(oldNF)
				delete(o.inflight, id)
				return "", fmt.Errorf("orchestrator: scheduling reconfigure: %w", err)
			}
			return id, nil
		}
	}
	return "", fmt.Errorf("orchestrator: no idle ClickOS instance at switch %d", v)
}

// Cancel stops an instance and releases its resources — used when fast
// failover rolls back and "the newly installed ClickOS instances are
// cancelled to save hardware resources" (§VI). An unknown instance
// (already cancelled, or lost in a host crash) reports
// ErrUnknownInstance; an injected RPC loss reports ErrCancelFailed and
// leaves the instance untouched, so callers can retry.
func (o *Orchestrator) Cancel(id vnf.ID) error {
	h, ok := o.hostOf[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	if o.faults != nil {
		o.faults.cancels++
		p := o.faults.plan
		if o.faults.fires(p.CancelFailProb, p.CancelFailOn, o.faults.cancels) {
			o.counters.Inc(CtrCancelFailures)
			if o.tracer.Enabled() {
				o.tracer.Emit(trace.Ev(trace.KindVNFCancelFail).WithInst(string(id)).WithErr(ErrCancelFailed))
			}
			return fmt.Errorf("cancelling %s: %w", id, ErrCancelFailed)
		}
	}
	port, err := h.PortOf(id)
	if err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	inst, err := h.InstanceAt(port)
	if err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	if inst.State() != vnf.StateStopped {
		if err := inst.SetState(vnf.StateStopped); err != nil {
			return fmt.Errorf("orchestrator: %w", err)
		}
	}
	if err := h.Detach(id); err != nil {
		return fmt.Errorf("orchestrator: %w", err)
	}
	delete(o.hostOf, id)
	o.counters.Inc(CtrCancels)
	if o.tracer.Enabled() {
		o.tracer.Emit(trace.Ev(trace.KindVNFCancel).WithInst(string(id)))
	}
	return nil
}

// Instances returns every managed instance ID, sorted.
func (o *Orchestrator) Instances() []vnf.ID {
	out := make([]vnf.ID, 0, len(o.hostOf))
	for id := range o.hostOf {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalUsed sums used resources across all hosts — the hardware metric of
// Fig 11.
func (o *Orchestrator) TotalUsed() policy.Resources {
	var total policy.Resources
	for _, hs := range o.hosts {
		for _, h := range hs {
			total = total.Add(h.Used())
		}
	}
	return total
}
