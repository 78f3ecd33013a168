// Package host models an APPLE host (§III): a physical node attached to an
// SDN switch that runs VNF instances in VMs behind a virtual switch. The
// vSwitch is a two-table pipeline — table 0 holds APPLE's
// ⟨InPort, class, sub-class⟩ steering rules and tagging logic, table 1 the
// rules of other applications — and the host tracks core/memory headroom
// (A_v in the optimization problem) plus the per-port packet counters the
// overload detector polls (§VII-B).
package host

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/vnf"
)

// PortID is a vSwitch port number. Port 0 is always the uplink to the
// physical switch.
type PortID int

// UplinkPort is the vSwitch port facing the physical network.
const UplinkPort PortID = 0

// TableSteering is the vSwitch table APPLE's steering and tagging rules
// live in; table 1 is left to other applications (production VM rules).
const TableSteering = 0

// DefaultResources is the per-host hardware the paper assumes (§IX-A:
// "64 cores at each APPLE host"), with a memory budget sized for a mix of
// ClickOS unikernels and full VMs.
func DefaultResources() policy.Resources {
	return policy.Resources{Cores: 64, MemoryMB: 128 * 1024}
}

// Host is one APPLE host. The port map, resource bookkeeping, and packet
// counters are guarded by one read-write lock. Concurrent packet
// injections (the data-plane read path) share it for port lookups but take
// it exclusively for every counter bump — CountPacket runs at the ingress
// port, at each instance port, and at the uplink on the way out — so they
// serialize briefly several times per injection, against each other as
// well as against attach/detach (the control-plane write path). vSwitch
// lookups are wait-free and overlap freely.
type Host struct {
	mu       sync.RWMutex
	name     string
	attached topology.NodeID
	total    policy.Resources
	used     policy.Resources // guarded by mu
	vswitch  *flowtable.Pipeline
	ports    map[PortID]*vnf.Instance // guarded by mu
	byID     map[vnf.ID]PortID        // guarded by mu
	nextPort PortID                   // guarded by mu
	counters map[PortID]uint64        // guarded by mu
}

// New creates a host attached to the given switch with the given hardware.
func New(name string, attached topology.NodeID, total policy.Resources) (*Host, error) {
	if name == "" {
		return nil, errors.New("host: empty name")
	}
	if !total.NonNegative() || total.Cores == 0 {
		return nil, fmt.Errorf("host: bad resource vector %v", total)
	}
	pl, err := flowtable.NewPipeline(2)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	return &Host{
		name:     name,
		attached: attached,
		total:    total,
		vswitch:  pl,
		ports:    make(map[PortID]*vnf.Instance),
		byID:     make(map[vnf.ID]PortID),
		nextPort: UplinkPort + 1,
		counters: make(map[PortID]uint64),
	}, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Switch returns the physical switch the host hangs off.
func (h *Host) Switch() topology.NodeID { return h.attached }

// VSwitch returns the host's virtual switch pipeline.
func (h *Host) VSwitch() *flowtable.Pipeline { return h.vswitch }

// Used returns the hardware reserved by attached instances.
func (h *Host) Used() policy.Resources {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.used
}

// Available returns the remaining headroom (A_v).
func (h *Host) Available() policy.Resources {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.total.Sub(h.used)
}

// availableLocked returns the remaining headroom. Callers hold mu.
func (h *Host) availableLocked() policy.Resources { return h.total.Sub(h.used) }

// Attach reserves resources for the instance and connects it to a fresh
// vSwitch port.
func (h *Host) Attach(inst *vnf.Instance) (PortID, error) {
	if inst == nil {
		return 0, errors.New("host: nil instance")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.byID[inst.ID()]; ok {
		return 0, fmt.Errorf("host: instance %s already attached", inst.ID())
	}
	need := inst.Spec().Resources()
	if !need.Fits(h.availableLocked()) {
		return 0, fmt.Errorf("host: %s needs %v but %s has %v free",
			inst.ID(), need, h.name, h.availableLocked())
	}
	port := h.nextPort
	h.nextPort++
	h.ports[port] = inst
	h.byID[inst.ID()] = port
	h.used = h.used.Add(need)
	return port, nil
}

// Detach releases the instance's resources and frees its port. Steering
// rules that reference the port are the caller's (rule generator's) job to
// remove.
func (h *Host) Detach(id vnf.ID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.detachLocked(id)
}

// detachLocked releases the instance's resources. Callers hold mu.
func (h *Host) detachLocked(id vnf.ID) error {
	port, ok := h.byID[id]
	if !ok {
		return fmt.Errorf("host: instance %s not attached", id)
	}
	inst := h.ports[port]
	h.used = h.used.Sub(inst.Spec().Resources())
	delete(h.ports, port)
	delete(h.byID, id)
	delete(h.counters, port)
	return nil
}

// Crash models the host's physical machine dying and rebooting: every
// attached instance is marked Failed and detached, releasing all reserved
// resources. The vSwitch pipeline survives (rules live on the controller's
// model of the host and are the rule generator's job to clean up). The
// failed instance IDs are returned sorted for deterministic handling.
func (h *Host) Crash() []vnf.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]vnf.ID, 0, len(h.byID))
	for id := range h.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		inst := h.ports[h.byID[id]]
		if st := inst.State(); st == vnf.StateBooting || st == vnf.StateRunning {
			// Booting→Failed and Running→Failed are always legal.
			_ = inst.SetState(vnf.StateFailed)
		}
		_ = h.detachLocked(id)
	}
	return ids
}

// PortOf returns the vSwitch port of an attached instance.
func (h *Host) PortOf(id vnf.ID) (PortID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	port, ok := h.byID[id]
	if !ok {
		return 0, fmt.Errorf("host: instance %s not attached", id)
	}
	return port, nil
}

// InstanceAt returns the instance behind a port.
func (h *Host) InstanceAt(port PortID) (*vnf.Instance, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	inst, ok := h.ports[port]
	if !ok {
		return nil, fmt.Errorf("host: no instance at port %d", port)
	}
	return inst, nil
}

// Instances returns the attached instances sorted by ID.
func (h *Host) Instances() []*vnf.Instance {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*vnf.Instance, 0, len(h.ports))
	for _, inst := range h.ports {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// NumInstances returns the attached instance count.
func (h *Host) NumInstances() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.ports)
}

// CountPacket bumps the per-port counter, emulating the Open vSwitch
// per-port statistics the prototype polls (they "update almost instantly",
// §VII-B, unlike per-flow counters).
func (h *Host) CountPacket(port PortID) {
	h.mu.Lock()
	h.counters[port]++
	h.mu.Unlock()
}

// Counter reads a per-port counter: the statistic the paper's prototype
// polls (§VII-B). Nothing in this reproduction polls it yet; TestCounters
// and TestInjectChainTraversal check what Inject counts.
func (h *Host) Counter(port PortID) uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.counters[port]
}

// Traversal is the outcome of pushing one packet through the host.
type Traversal struct {
	// Visited lists the instances the packet passed through, in order.
	Visited []vnf.ID
	// Result is the final vSwitch disposition (normally a forward to the
	// uplink).
	Result flowtable.Result
}

// maxHops bounds intra-host forwarding; the paper assumes a packet never
// visits the same instance twice, so the instance count is a natural
// bound.
const maxHopsSlack = 2

// Inject pushes a packet into the host on the given ingress port and
// follows vSwitch forwarding across instance ports until the packet
// leaves (forwarded to the uplink), is dropped, or misses. The packet's
// tag fields are updated in place by the vSwitch rules.
func (h *Host) Inject(pkt *flowtable.Packet, ingress PortID) (Traversal, error) {
	visited, res, err := h.AppendInject(nil, pkt, ingress)
	return Traversal{Visited: visited, Result: res}, err
}

// AppendInject is Inject writing into the caller's buffer: it appends the
// instances the packet passes through to visited and returns the extended
// slice with the final vSwitch result, so a caller whose buffer has room
// allocates nothing. The revisit check covers only what this injection
// appended. On error the returned slice holds the instances visited so far.
func (h *Host) AppendInject(visited []vnf.ID, pkt *flowtable.Packet, ingress PortID) ([]vnf.ID, flowtable.Result, error) {
	if pkt == nil {
		return visited, flowtable.Result{}, errors.New("host: nil packet")
	}
	start := len(visited)
	var res flowtable.Result
	pkt.InPort = int(ingress)
	h.CountPacket(ingress)
	maxHops := h.NumInstances() + maxHopsSlack
	for hop := 0; hop <= maxHops; hop++ {
		var err error
		res, err = h.vswitch.Process(pkt)
		if err != nil {
			return visited, res, fmt.Errorf("host: vswitch: %w", err)
		}
		if res.Disposition != flowtable.DispForward {
			return visited, res, nil
		}
		port := PortID(res.Port)
		if port == UplinkPort {
			h.CountPacket(UplinkPort)
			return visited, res, nil
		}
		inst, err := h.InstanceAt(port)
		if err != nil {
			return visited, res, fmt.Errorf("host: rule %q forwards to unknown port %d", res.Rule, port)
		}
		h.CountPacket(port)
		visited = append(visited, inst.ID())
		// Header-modifying NFs (NAT) rewrite the source address — the
		// behaviour that makes downstream header classification invalid
		// and motivates global sub-class tags (§X). The rewritten address
		// comes from the CGNAT pool, deterministic per instance.
		if inst.Spec().RewritesHeader {
			pkt.Hdr.SrcIP = natAddress(inst.ID(), pkt.Hdr.SrcIP)
		}
		for _, seen := range visited[start : len(visited)-1] {
			if seen == inst.ID() {
				return visited, res, fmt.Errorf("host: packet visited instance %s twice", inst.ID())
			}
		}
		// The instance returns the packet to the vSwitch on its own port
		// (IncomePort identifies progress through the chain, §V-B).
		pkt.InPort = int(port)
	}
	return visited, res, fmt.Errorf("host: packet exceeded %d intra-host hops", maxHops)
}

// natAddress maps a source address to the instance's CGNAT pool
// (100.64.0.0/10), deterministically.
func natAddress(id vnf.ID, src uint32) uint32 {
	var h uint32 = 2166136261
	for _, b := range []byte(id) {
		h = (h ^ uint32(b)) * 16777619
	}
	return 100<<24 | 64<<16 | (h^src)&0x3FFFFF
}
