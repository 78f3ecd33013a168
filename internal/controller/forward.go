package controller

import (
	"fmt"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// Trace records one packet's walk through the network.
type Trace struct {
	// Switches visited, in order (a switch repeats if the packet bounced
	// through its APPLE host).
	Switches []topology.NodeID
	// Instances visited, in order — the enforced NF sequence.
	Instances []vnf.ID
	// Delivered reports whether the packet reached its destination
	// switch's delivery port.
	Delivered bool
	// FinalHostTag is the host tag on delivery (Fin once the chain is
	// complete, Empty if the packet needed no processing).
	FinalHostTag uint16
}

// Walk buffer sizes: room for the switches and instances of any walk on
// the paper's topologies, so a walk into them allocates nothing. A longer
// walk still completes; its appends grow onto the heap.
const (
	walkSwitches  = 32
	walkInstances = 8
)

// Forward injects a packet with the given header at the ingress switch
// and walks it through physical pipelines and APPLE hosts until delivery
// or drop, mirroring Fig 2's per-switch processing and Fig 3's scenarios.
// The walk runs on stack buffers; the returned trace is one exact-size copy
// of them (the partial trace on error).
func (c *Controller) Forward(hdr headerspace.Header, ingress topology.NodeID) (Trace, error) {
	var sws [walkSwitches]topology.NodeID
	var insts [walkInstances]vnf.ID
	w, err := c.walk(hdr, ingress, Trace{Switches: sws[:0], Instances: insts[:0]})
	return Trace{
		Switches:     exactCopy(w.Switches),
		Instances:    exactCopy(w.Instances),
		Delivered:    w.Delivered,
		FinalHostTag: w.FinalHostTag,
	}, err
}

// exactCopy copies s into a heap slice of exactly its length; nil if empty.
func exactCopy[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	out := make([]E, len(s))
	copy(out, s)
	return out
}

// walk is Forward appending into tr's Switches and Instances, which the
// caller owns and sizes: tr is passed and returned by value so that
// buffers on the caller's stack stay there. On error it returns the trace
// walked so far, without the instances of a failed host injection.
func (c *Controller) walk(hdr headerspace.Header, ingress topology.NodeID, tr Trace) (Trace, error) {
	sw, ok := c.switches[ingress]
	if !ok {
		return tr, fmt.Errorf("controller: unknown ingress switch %d", ingress)
	}
	pkt := flowtable.Packet{Hdr: hdr}
	// Generous bound: a packet can visit each switch at most a handful of
	// times (once per host bounce plus transit).
	maxSteps := 4*len(c.switches) + 16
	for step := 0; step < maxSteps; step++ {
		tr.Switches = append(tr.Switches, sw.ID)
		res, err := sw.Pipeline.Process(&pkt)
		if err != nil {
			return tr, fmt.Errorf("controller: switch %d: %w", sw.ID, err)
		}
		if res.Disposition != flowtable.DispForward {
			return tr, fmt.Errorf("controller: switch %d %s packet (rule %q)", sw.ID, res.Disposition, res.Rule)
		}
		switch {
		case res.Port == PortDeliver:
			tr.Delivered = true
			tr.FinalHostTag = pkt.HostTag
			return tr, nil
		case res.Port == PortHost:
			if sw.host == nil {
				return tr, fmt.Errorf("controller: switch %d forwards to a missing host", sw.ID)
			}
			visited, hres, err := sw.host.AppendInject(tr.Instances, &pkt, host.UplinkPort)
			if err != nil {
				return tr, fmt.Errorf("controller: %w", err)
			}
			if hres.Disposition != flowtable.DispForward || hres.Port != int(host.UplinkPort) {
				return tr, fmt.Errorf("controller: host at %d did not return the packet (%+v)", sw.ID, hres)
			}
			tr.Instances = visited
			// The packet re-enters the same switch from the host port.
		default:
			i := res.Port - firstNeighborPort
			if i < 0 || i >= len(sw.nbrs) {
				return tr, fmt.Errorf("controller: switch %d has no neighbor on port %d", sw.ID, res.Port)
			}
			sw = sw.nbrs[i]
		}
	}
	return tr, fmt.Errorf("controller: packet exceeded %d forwarding steps (loop?)", maxSteps)
}

// InstanceNF resolves an instance ID to its current NF type.
func (c *Controller) InstanceNF(id vnf.ID) (policy.NF, error) {
	h, err := c.orch.HostOf(id)
	if err != nil {
		return 0, fmt.Errorf("controller: %w", err)
	}
	port, err := h.PortOf(id)
	if err != nil {
		return 0, fmt.Errorf("controller: %w", err)
	}
	inst, err := h.InstanceAt(port)
	if err != nil {
		return 0, fmt.Errorf("controller: %w", err)
	}
	return inst.NF(), nil
}

// CheckClassEnforcement forwards probe packets for one class from its
// ingress and verifies the visited NF sequence equals the policy chain —
// the end-to-end policy-enforcement property for that class. One probe
// starts each eighth of the class's source space, so every sub-class
// holding an eighth or more of the traffic is exercised. The probes share
// one set of stack walk buffers, so a passing class allocates nothing.
func (c *Controller) CheckClassEnforcement(id core.ClassID) error {
	a, ok := c.assign.get(id)
	if !ok {
		return fmt.Errorf("controller: class %d not installed", id)
	}
	var sws [walkSwitches]topology.NodeID
	var insts [walkInstances]vnf.ID
	slice := uint32(1) << (32 - a.Prefix().Len - 3)
	for sub := uint32(0); sub < 8; sub++ {
		hdr, err := c.FlowHeader(id, sub*slice)
		if err != nil {
			return err
		}
		tr, err := c.walk(hdr, a.Class.Path[0], Trace{Switches: sws[:0], Instances: insts[:0]})
		if err != nil {
			return fmt.Errorf("controller: class %d probe %d: %w", id, sub, err)
		}
		if !tr.Delivered {
			return fmt.Errorf("controller: class %d probe %d not delivered", id, sub)
		}
		if len(tr.Instances) != len(a.Class.Chain) {
			return fmt.Errorf("controller: class %d probe %d visited %d instances, chain has %d",
				id, sub, len(tr.Instances), len(a.Class.Chain))
		}
		for j, instID := range tr.Instances {
			nf, err := c.InstanceNF(instID)
			if err != nil {
				return err
			}
			if nf != a.Class.Chain[j] {
				return fmt.Errorf("controller: class %d probe %d position %d: visited %v, chain says %v",
					id, sub, j, nf, a.Class.Chain[j])
			}
		}
		if tr.FinalHostTag != flowtable.HostTagFin {
			return fmt.Errorf("controller: class %d probe %d delivered with host tag %d, want Fin",
				id, sub, tr.FinalHostTag)
		}
	}
	return nil
}

// CheckEnforcement runs CheckClassEnforcement for every installed class
// and returns the first violation found.
func (c *Controller) CheckEnforcement() error {
	for _, id := range c.Classes() {
		if err := c.CheckClassEnforcement(id); err != nil {
			return err
		}
	}
	return nil
}
