package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/host"
	"github.com/apple-nfv/apple/internal/policy"
)

// Direct measurements of the data-plane layers on a workload's final
// state, taken once at the end of the traced run. The layers offer no
// hooks, so each is driven through its own public API: a replica of the
// busiest switch table for Lookup and the one-rule republish, that
// switch's live pipeline for Process, a host's vSwitch for Inject, and
// the orchestrator for PlaceNow.

// probeReps is how many calls each timing loop makes.
const probeReps = 100_000

// classProbes builds one probe packet per class.
func classProbes(c *controller.Controller, classes []core.Class, rng *rand.Rand) []probePacket {
	out := make([]probePacket, 0, len(classes))
	for _, cl := range classes {
		if hdr, err := c.FlowHeader(cl.ID, rng.Uint32()); err == nil {
			out = append(out, probePacket{hdr, cl.Path[0], cl.Chain})
		}
	}
	return out
}

// perCall times reps calls of f and returns ns per call and heap objects
// allocated per call.
func perCall(reps int, f func(i int)) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(reps)
	return float64(d) / n, float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

func probeDataPlane(c *controller.Controller, probes []probePacket, out map[string]float64) {
	if len(probes) == 0 {
		return
	}
	// The busiest APPLE table and the probes that enter at its switch.
	var hot *controller.Switch
	var hotTable *flowtable.Table
	for _, v := range c.Switches() {
		sw, err := c.Switch(v)
		if err != nil {
			continue
		}
		t, err := sw.Pipeline.Table(controller.TableAPPLE)
		if err == nil && (hotTable == nil || t.Size() > hotTable.Size()) {
			hot, hotTable = sw, t
		}
	}
	var pkts []flowtable.Packet
	for _, pp := range probes {
		if pp.ingress == hot.ID {
			pkts = append(pkts, flowtable.Packet{Hdr: pp.hdr})
		}
	}
	if len(pkts) == 0 {
		pkts = append(pkts, flowtable.Packet{Hdr: probes[0].hdr})
	}
	rules := hotTable.Rules()
	out["flowtable.hot_table_rules"] = float64(len(rules))
	replica := flowtable.NewTable()
	ops := make([]flowtable.BatchOp, len(rules))
	for i, r := range rules {
		ops[i] = flowtable.BatchOp{Rule: r}
	}
	if _, err := replica.ApplyBatch(ops); err == nil {
		out["flowtable.lookup_ns"], out["flowtable.lookup_allocs"], _ = perCall(probeReps, func(i int) {
			replica.Lookup(pkts[i%len(pkts)])
		})
		// One more rule into a table of that size: the whole-table
		// republish an install pays.
		var us []float64
		for i := 0; i < 32; i++ {
			r := rules[0]
			r.Name = fmt.Sprintf("applebench-republish-%d", i)
			t0 := time.Now()
			_, err := replica.ApplyBatch([]flowtable.BatchOp{{Rule: r}})
			if err == nil {
				us = append(us, float64(time.Since(t0))/1e3)
			}
			replica.Remove(r.Name)
		}
		out["flowtable.apply_batch1_us"] = median(us)
	}
	out["flowtable.process_ns"], _, _ = perCall(probeReps, func(i int) {
		p := pkts[i%len(pkts)]
		_, _ = hot.Pipeline.Process(&p) // a miss is a valid, timed outcome
	})

	// Whole walks, single-threaded, for the allocation count a Trace-slice
	// fix should take toward zero.
	_, out["controller.forward.allocs_per_op"], out["controller.forward.bytes_per_op"] = perCall(probeReps/10, func(i int) {
		pp := &probes[i%len(probes)]
		_, _ = c.Forward(pp.hdr, pp.ingress) // correctness of walks is checked in the workloads
	})

	// Host injection: packets whose first pipeline pass sends them into
	// the ingress switch's own APPLE host, replayed from that point.
	type entry struct {
		h   *host.Host
		pkt flowtable.Packet
	}
	var entries []entry
	for _, pp := range probes {
		sw, err := c.Switch(pp.ingress)
		if err != nil {
			continue
		}
		pkt := flowtable.Packet{Hdr: pp.hdr}
		res, err := sw.Pipeline.Process(&pkt)
		if err != nil || res.Disposition != flowtable.DispForward || res.Port != controller.PortHost {
			continue
		}
		if h, err := c.Host(pp.ingress); err == nil {
			entries = append(entries, entry{h, pkt})
		}
		if len(entries) == 256 {
			break
		}
	}
	if len(entries) > 0 {
		out["host.inject_ns"], _, _ = perCall(probeReps, func(i int) {
			e := &entries[i%len(entries)]
			p := e.pkt
			_, _ = e.h.Inject(&p, host.UplinkPort) // replay of a packet the workload already verified
		})
	}

	// Instance provisioning, undone at once.
	orch := c.Orchestrator()
	var us []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		inst, _, err := orch.PlaceNow(policy.Firewall, hot.ID)
		if err != nil {
			break
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if err := orch.Cancel(inst.ID()); err != nil {
			break
		}
	}
	out["orchestrator.place_now_us"] = median(us)
	out["orchestrator.instances"] = float64(len(orch.Instances()))
}
