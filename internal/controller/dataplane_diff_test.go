package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/topology"
)

// Compiled-vs-linear differential property over the same 200 random
// scenarios as the PR 3 suite: after a controller installs a random
// accepted workload, every flow table the Rule Generator produced —
// physical-switch TCAM tables and vSwitch steering tables alike — must
// give byte-identical verdicts from the compiled tuple-space matcher
// (Lookup / Process) and the linear reference scan (LookupLinear /
// ProcessLinear), on a packet battery that covers classified, half-way,
// and finished tag states, every sub-class probe, and adversarial random
// headers.

// diffProbePackets builds the packet battery for one installed scenario.
func diffProbePackets(t *testing.T, rng *rand.Rand, c *Controller, accepted []core.Class) []flowtable.Packet {
	t.Helper()
	var pkts []flowtable.Packet
	tagStates := []uint16{flowtable.HostTagEmpty, 1, 2, flowtable.HostTagFin}
	for _, cl := range accepted {
		for sub := uint32(0); sub < 8; sub++ {
			hdr, err := c.FlowHeader(cl.ID, sub<<4)
			if err != nil {
				t.Fatalf("FlowHeader(%d,%d): %v", cl.ID, sub, err)
			}
			for _, tag := range tagStates {
				pkts = append(pkts, flowtable.Packet{
					Hdr:     hdr,
					HostTag: tag,
					SubTag:  uint8(rng.Intn(4)),
					InPort:  rng.Intn(4),
				})
			}
		}
	}
	for i := 0; i < 48; i++ {
		var p flowtable.Packet
		p.Hdr.SrcIP = rng.Uint32()
		p.Hdr.DstIP = rng.Uint32()
		p.Hdr.Proto = uint8(rng.Intn(4))
		p.Hdr.SrcPort = uint16(rng.Intn(1024))
		p.Hdr.DstPort = uint16(rng.Intn(1024))
		p.HostTag = uint16(rng.Intn(1 << 12))
		p.SubTag = uint8(rng.Intn(64))
		p.InPort = rng.Intn(8)
		pkts = append(pkts, p)
	}
	return pkts
}

// diffPipelines collects every pipeline in the deployment, labeled.
func diffPipelines(t *testing.T, c *Controller, g *topology.Graph) map[string]*flowtable.Pipeline {
	t.Helper()
	out := make(map[string]*flowtable.Pipeline)
	for _, n := range g.Nodes() {
		sw, err := c.Switch(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("sw%d", n.ID)] = sw.Pipeline
		if h, err := c.Host(n.ID); err == nil {
			out[fmt.Sprintf("host%d", n.ID)] = h.VSwitch()
		}
	}
	return out
}

// TestPropertyCompiledMatchesLinear is the 200-seed differential: for
// every table, Lookup == LookupLinear; for every pipeline, Process ==
// ProcessLinear including the error and the final mutated packet.
func TestPropertyCompiledMatchesLinear(t *testing.T) {
	for seed := int64(0); seed < propSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randTopo(rng)
		classes := genClasses(rng, g)
		c := newPropController(t, g)
		var accepted []core.Class
		for _, cl := range classes {
			if err := c.AddClass(cl); err == nil {
				accepted = append(accepted, cl)
			}
		}
		if len(accepted) == 0 {
			continue
		}
		pkts := diffProbePackets(t, rng, c, accepted)
		for name, pl := range diffPipelines(t, c, g) {
			for ti := 0; ti < pl.NumTables(); ti++ {
				tb, err := pl.Table(ti)
				if err != nil {
					t.Fatal(err)
				}
				for pi, pkt := range pkts {
					got, ok := tb.Lookup(pkt)
					want, wantOK := tb.LookupLinear(pkt)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s table %d packet %d: compiled (%+v,%v) != linear (%+v,%v)\npacket %+v",
							seed, name, ti, pi, got, ok, want, wantOK, pkt)
					}
				}
			}
			for pi := range pkts {
				pc, pLin := pkts[pi], pkts[pi]
				resC, errC := pl.Process(&pc)
				resL, errL := pl.ProcessLinear(&pLin)
				if (errC == nil) != (errL == nil) || !reflect.DeepEqual(resC, resL) || pc != pLin {
					t.Fatalf("seed %d %s packet %d: compiled (%+v,%v,pkt %+v) != linear (%+v,%v,pkt %+v)",
						seed, name, pi, resC, errC, pc, resL, errL, pLin)
				}
			}
		}
	}
}
