package host

import (
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/headerspace"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/vnf"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := New("host-1", 3, DefaultResources())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func newInstance(t *testing.T, id string, nf policy.NF) *vnf.Instance {
	t.Helper()
	inst, err := vnf.New(vnf.ID(id), nf)
	if err != nil {
		t.Fatalf("vnf.New: %v", err)
	}
	if err := inst.SetState(vnf.StateRunning); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", 0, DefaultResources()); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := New("h", 0, policy.Resources{}); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := New("h", 0, policy.Resources{Cores: -1}); err == nil {
		t.Error("negative resources should fail")
	}
}

func TestAttachDetachResources(t *testing.T) {
	h := newHost(t)
	if h.Name() != "host-1" || h.Switch() != 3 {
		t.Fatal("identity wrong")
	}
	if h.total.Cores != 64 {
		t.Fatalf("default cores = %d, want 64 (paper §IX-A)", h.total.Cores)
	}
	fw := newInstance(t, "fw-1", policy.Firewall) // 4 cores
	port, err := h.Attach(fw)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if port == UplinkPort {
		t.Fatal("instance must not get the uplink port")
	}
	if h.Used().Cores != 4 || h.Available().Cores != 60 {
		t.Fatalf("used=%v avail=%v", h.Used(), h.Available())
	}
	got, err := h.PortOf("fw-1")
	if err != nil || got != port {
		t.Fatalf("PortOf = %v, %v", got, err)
	}
	inst, err := h.InstanceAt(port)
	if err != nil || inst.ID() != "fw-1" {
		t.Fatalf("InstanceAt = %v, %v", inst, err)
	}
	if h.NumInstances() != 1 || len(h.Instances()) != 1 {
		t.Fatal("instance listing wrong")
	}
	if err := h.Detach("fw-1"); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if h.Used().Cores != 0 {
		t.Fatal("resources not released")
	}
	if err := h.Detach("fw-1"); err == nil {
		t.Fatal("double detach should fail")
	}
	if _, err := h.PortOf("fw-1"); err == nil {
		t.Fatal("PortOf after detach should fail")
	}
	if _, err := h.InstanceAt(port); err == nil {
		t.Fatal("InstanceAt after detach should fail")
	}
}

func TestAttachValidation(t *testing.T) {
	h := newHost(t)
	if _, err := h.Attach(nil); err == nil {
		t.Error("nil instance should fail")
	}
	fw := newInstance(t, "fw", policy.Firewall)
	if _, err := h.Attach(fw); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Attach(fw); err == nil {
		t.Error("duplicate attach should fail")
	}
}

func TestAttachResourceExhaustion(t *testing.T) {
	h, err := New("small", 0, policy.Resources{Cores: 10, MemoryMB: 8192})
	if err != nil {
		t.Fatal(err)
	}
	// IDS needs 8 cores/4096 MB: one fits, two do not.
	if _, err := h.Attach(newInstance(t, "ids-1", policy.IDS)); err != nil {
		t.Fatalf("first IDS: %v", err)
	}
	_, err = h.Attach(newInstance(t, "ids-2", policy.IDS))
	if err == nil {
		t.Fatal("second IDS should exceed cores")
	}
	if !strings.Contains(err.Error(), "free") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// NAT (2 cores, 32 MB) still fits.
	if _, err := h.Attach(newInstance(t, "nat-1", policy.NAT)); err != nil {
		t.Fatalf("NAT should fit: %v", err)
	}
}

func TestCounters(t *testing.T) {
	h := newHost(t)
	h.CountPacket(UplinkPort)
	h.CountPacket(UplinkPort)
	h.CountPacket(5)
	if h.Counter(UplinkPort) != 2 || h.Counter(5) != 1 || h.Counter(9) != 0 {
		t.Fatal("counters wrong")
	}
}

// TestInjectChainTraversal wires the vSwitch with ⟨InPort, class,
// sub-class⟩ rules for the chain firewall→ids and verifies the packet
// visits both instances in order and leaves via the uplink — the Fig 3
// intra-host scenario.
func TestInjectChainTraversal(t *testing.T) {
	h := newHost(t)
	fw := newInstance(t, "fw", policy.Firewall)
	ids := newInstance(t, "ids", policy.IDS)
	fwPort, err := h.Attach(fw)
	if err != nil {
		t.Fatal(err)
	}
	idsPort, err := h.Attach(ids)
	if err != nil {
		t.Fatal(err)
	}
	steer, err := h.VSwitch().Table(TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	const sub uint8 = 3
	// From uplink: go to firewall.
	install := func(name string, inPort PortID, actions ...flowtable.Action) {
		t.Helper()
		if err := steer.Install(flowtable.Rule{
			Name: name, Priority: 10,
			Match:   flowtable.Match{}.WithInPort(int(inPort)).WithSubTag(sub),
			Actions: actions,
		}); err != nil {
			t.Fatal(err)
		}
	}
	install("to-fw", UplinkPort, flowtable.Action{Type: flowtable.ActForward, Port: int(fwPort)})
	install("to-ids", fwPort, flowtable.Action{Type: flowtable.ActForward, Port: int(idsPort)})
	install("done", idsPort,
		flowtable.Action{Type: flowtable.ActSetHostTag, Tag: flowtable.HostTagFin},
		flowtable.Action{Type: flowtable.ActForward, Port: int(UplinkPort)})

	pkt := &flowtable.Packet{SubTag: 3}
	tr, err := h.Inject(pkt, UplinkPort)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if len(tr.Visited) != 2 || tr.Visited[0] != "fw" || tr.Visited[1] != "ids" {
		t.Fatalf("visited = %v, want [fw ids]", tr.Visited)
	}
	if tr.Result.Disposition != flowtable.DispForward || tr.Result.Port != int(UplinkPort) {
		t.Fatalf("final result = %+v", tr.Result)
	}
	if pkt.HostTag != flowtable.HostTagFin {
		t.Fatalf("host tag = %v, want Fin", pkt.HostTag)
	}
	// Counters: uplink ingress + fw + ids + uplink egress.
	if h.Counter(UplinkPort) != 2 || h.Counter(fwPort) != 1 || h.Counter(idsPort) != 1 {
		t.Fatalf("counters: uplink=%d fw=%d ids=%d",
			h.Counter(UplinkPort), h.Counter(fwPort), h.Counter(idsPort))
	}
}

// chainHost attaches one instance per NF and steers packets of sub-class 3
// from the uplink through them in order and back out with host tag Fin.
func chainHost(t *testing.T, nfs ...policy.NF) (*Host, []vnf.ID) {
	t.Helper()
	h := newHost(t)
	steer, err := h.VSwitch().Table(TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]vnf.ID, len(nfs))
	in := UplinkPort
	for i, nf := range nfs {
		ids[i] = vnf.ID(nf.String() + "-" + string(rune('a'+i)))
		port, err := h.Attach(newInstance(t, string(ids[i]), nf))
		if err != nil {
			t.Fatal(err)
		}
		if err := steer.Install(flowtable.Rule{
			Name: "to-" + string(ids[i]), Priority: 10,
			Match:   flowtable.Match{}.WithInPort(int(in)).WithSubTag(3),
			Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(port)}},
		}); err != nil {
			t.Fatal(err)
		}
		in = port
	}
	if err := steer.Install(flowtable.Rule{
		Name: "out", Priority: 10,
		Match: flowtable.Match{}.WithInPort(int(in)).WithSubTag(3),
		Actions: []flowtable.Action{
			{Type: flowtable.ActSetHostTag, Tag: flowtable.HostTagFin},
			{Type: flowtable.ActForward, Port: int(UplinkPort)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return h, ids
}

// TestAppendInjectZeroAllocs: an injection into a buffer with room for the
// chain allocates nothing, on a three-NF chain and on a chain whose NAT
// rewrites the source address. Inject, which appends to a nil buffer,
// allocates 3 and 2 objects on these chains.
func TestAppendInjectZeroAllocs(t *testing.T) {
	for _, chain := range []policy.Chain{
		{policy.Firewall, policy.IDS, policy.Proxy},
		{policy.NAT, policy.Firewall},
	} {
		h, ids := chainHost(t, chain...)
		buf := make([]vnf.ID, 0, 8)
		var visited []vnf.ID
		allocs := testing.AllocsPerRun(100, func() {
			pkt := flowtable.Packet{SubTag: 3, Hdr: headerspace.Header{SrcIP: 0x0A000001}}
			var err error
			var res flowtable.Result
			visited, res, err = h.AppendInject(buf[:0], &pkt, UplinkPort)
			if err != nil || res.Port != int(UplinkPort) || pkt.HostTag != flowtable.HostTagFin {
				t.Fatalf("chain %v: result %+v, host tag %d, err %v", chain, res, pkt.HostTag, err)
			}
		})
		if !slices.Equal(visited, ids) {
			t.Fatalf("chain %v: visited %v, want %v", chain, visited, ids)
		}
		if allocs != 0 {
			t.Errorf("chain %v: AppendInject allocated %.1f objects per injection into a buffer with room", chain, allocs)
		}
	}
}

// TestAppendInjectKeepsPrefix: AppendInject extends the caller's slice,
// and its revisit check covers only what this injection appended — a
// packet bouncing through the same host twice on its walk is not a loop.
func TestAppendInjectKeepsPrefix(t *testing.T) {
	h, ids := chainHost(t, policy.Firewall, policy.IDS)
	visited := []vnf.ID{"elsewhere"}
	for pass := 1; pass <= 2; pass++ {
		pkt := flowtable.Packet{SubTag: 3}
		var err error
		if visited, _, err = h.AppendInject(visited, &pkt, UplinkPort); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	want := append(append([]vnf.ID{"elsewhere"}, ids...), ids...)
	if !slices.Equal(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

func TestInjectNoMatch(t *testing.T) {
	h := newHost(t)
	pkt := &flowtable.Packet{}
	tr, err := h.Inject(pkt, UplinkPort)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if tr.Result.Disposition != flowtable.DispNoMatch || len(tr.Visited) != 0 {
		t.Fatalf("traversal = %+v", tr)
	}
	if _, err := h.Inject(nil, UplinkPort); err == nil {
		t.Fatal("nil packet should fail")
	}
}

func TestInjectLoopDetection(t *testing.T) {
	h := newHost(t)
	fw := newInstance(t, "fw", policy.Firewall)
	fwPort, err := h.Attach(fw)
	if err != nil {
		t.Fatal(err)
	}
	steer, err := h.VSwitch().Table(TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	// A rule that bounces every packet back to the firewall forever.
	if err := steer.Install(flowtable.Rule{
		Name: "loop", Priority: 1,
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(fwPort)}},
	}); err != nil {
		t.Fatal(err)
	}
	pkt := &flowtable.Packet{}
	if _, err := h.Inject(pkt, UplinkPort); err == nil {
		t.Fatal("revisiting an instance must be detected")
	}
}

func TestInjectUnknownPort(t *testing.T) {
	h := newHost(t)
	steer, err := h.VSwitch().Table(TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	if err := steer.Install(flowtable.Rule{
		Name: "bad", Priority: 1,
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: 77}},
	}); err != nil {
		t.Fatal(err)
	}
	pkt := &flowtable.Packet{}
	if _, err := h.Inject(pkt, UplinkPort); err == nil {
		t.Fatal("forward to unknown port must error")
	}
}

func TestInstancesSorted(t *testing.T) {
	h := newHost(t)
	for _, id := range []string{"c", "a", "b"} {
		if _, err := h.Attach(newInstance(t, id, policy.NAT)); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Instances()
	if got[0].ID() != "a" || got[1].ID() != "b" || got[2].ID() != "c" {
		t.Fatalf("instances not sorted: %v, %v, %v", got[0].ID(), got[1].ID(), got[2].ID())
	}
}

func TestNATRewritesSource(t *testing.T) {
	h := newHost(t)
	nat := newInstance(t, "nat-1", policy.NAT)
	port, err := h.Attach(nat)
	if err != nil {
		t.Fatal(err)
	}
	steer, err := h.VSwitch().Table(TableSteering)
	if err != nil {
		t.Fatal(err)
	}
	if err := steer.Install(flowtable.Rule{
		Name: "in", Priority: 10,
		Match:   flowtable.Match{}.WithInPort(int(UplinkPort)),
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(port)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := steer.Install(flowtable.Rule{
		Name: "out", Priority: 10,
		Match:   flowtable.Match{}.WithInPort(int(port)),
		Actions: []flowtable.Action{{Type: flowtable.ActForward, Port: int(UplinkPort)}},
	}); err != nil {
		t.Fatal(err)
	}
	orig := uint32(0x0A010105)
	pkt := &flowtable.Packet{}
	pkt.Hdr.SrcIP = orig
	if _, err := h.Inject(pkt, UplinkPort); err != nil {
		t.Fatal(err)
	}
	if pkt.Hdr.SrcIP == orig {
		t.Fatal("NAT did not rewrite the source address")
	}
	// The rewritten address lands in the CGNAT pool 100.64.0.0/10.
	if pkt.Hdr.SrcIP>>22 != (100<<24|64<<16)>>22 {
		t.Fatalf("rewritten source %x outside 100.64.0.0/10", pkt.Hdr.SrcIP)
	}
	// Deterministic per (instance, original source).
	if got := natAddress("nat-1", orig); got != pkt.Hdr.SrcIP {
		t.Fatal("natAddress not deterministic")
	}
	if natAddress("nat-2", orig) == natAddress("nat-1", orig) {
		t.Fatal("different instances should map to different pools")
	}
}

func TestCrash(t *testing.T) {
	h := newHost(t)
	running := newInstance(t, "fw-1@h", policy.Firewall)
	if _, err := h.Attach(running); err != nil {
		t.Fatal(err)
	}
	booting, err := vnf.New("nat-2@h", policy.NAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Attach(booting); err != nil {
		t.Fatal(err)
	}
	lost := h.Crash()
	if len(lost) != 2 || lost[0] != "fw-1@h" || lost[1] != "nat-2@h" {
		t.Fatalf("lost = %v, want both instances sorted", lost)
	}
	if running.State() != vnf.StateFailed || booting.State() != vnf.StateFailed {
		t.Fatalf("states after crash: %v, %v, want Failed", running.State(), booting.State())
	}
	// The machine reboots empty: resources free, ports vacant.
	if h.Available() != DefaultResources() {
		t.Fatalf("available = %+v after crash, want everything", h.Available())
	}
	if _, err := h.PortOf("fw-1@h"); err == nil {
		t.Fatal("crashed instance still has a port")
	}
	// Crashing an empty host loses nothing.
	if again := h.Crash(); len(again) != 0 {
		t.Fatalf("second crash lost %v", again)
	}
	// The rebooted host accepts new work.
	if _, err := h.Attach(newInstance(t, "fw-3@h", policy.Firewall)); err != nil {
		t.Fatalf("attach after crash: %v", err)
	}
}
