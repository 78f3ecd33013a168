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

// Forward injects a packet with the given header at the ingress switch
// and walks it through physical pipelines and APPLE hosts until delivery
// or drop, mirroring Fig 2's per-switch processing and Fig 3's scenarios.
func (c *Controller) Forward(hdr headerspace.Header, ingress topology.NodeID) (Trace, error) {
	var tr Trace
	sw, ok := c.switches[ingress]
	if !ok {
		return tr, fmt.Errorf("controller: unknown ingress switch %d", ingress)
	}
	pkt := &flowtable.Packet{Hdr: hdr}
	// Generous bound: a packet can visit each switch at most a handful of
	// times (once per host bounce plus transit).
	maxSteps := 4*len(c.switches) + 16
	for step := 0; step < maxSteps; step++ {
		tr.Switches = append(tr.Switches, sw.ID)
		res, err := sw.Pipeline.Process(pkt)
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
			h, ok := c.hosts[sw.ID]
			if !ok {
				return tr, fmt.Errorf("controller: switch %d forwards to a missing host", sw.ID)
			}
			hostTr, err := h.Inject(pkt, host.UplinkPort)
			if err != nil {
				return tr, fmt.Errorf("controller: %w", err)
			}
			if hostTr.Result.Disposition != flowtable.DispForward ||
				hostTr.Result.Port != int(host.UplinkPort) {
				return tr, fmt.Errorf("controller: host at %d did not return the packet (%+v)", sw.ID, hostTr.Result)
			}
			tr.Instances = append(tr.Instances, hostTr.Visited...)
			// The packet re-enters the same switch from the host port.
		default:
			next, ok := c.neighborAt(sw.ID, res.Port)
			if !ok {
				return tr, fmt.Errorf("controller: switch %d has no neighbor on port %d", sw.ID, res.Port)
			}
			sw = c.switches[next]
		}
	}
	return tr, fmt.Errorf("controller: packet exceeded %d forwarding steps (loop?)", maxSteps)
}

// neighborAt reverses the port map.
func (c *Controller) neighborAt(v topology.NodeID, port int) (topology.NodeID, bool) {
	for nb, p := range c.nbrPort[v] {
		if p == port {
			return nb, true
		}
	}
	return 0, false
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
// holding an eighth or more of the traffic is exercised.
func (c *Controller) CheckClassEnforcement(id core.ClassID) error {
	a, ok := c.assign.get(id)
	if !ok {
		return fmt.Errorf("controller: class %d not installed", id)
	}
	slice := uint32(1) << (32 - a.Prefix.Len - 3)
	for sub := uint32(0); sub < 8; sub++ {
		hdr, err := c.FlowHeader(id, sub*slice)
		if err != nil {
			return err
		}
		tr, err := c.Forward(hdr, a.Class.Path[0])
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
