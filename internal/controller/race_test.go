package controller

import (
	"sync"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/flowtable"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// TestForwardDuringBatchInstall exercises the Lookup-while-Install path
// end to end: data-plane probes for an already installed class keep
// forwarding — with correct enforcement — while AddClassBatch concurrently
// classifies, tags, and installs a batch of new classes into the same
// switch pipelines and vSwitches. Run under -race this is the controller
// concurrency test — it covers the walk's reads of each switch's
// neighbour and host pointers, which New sets and nothing writes again —
// and the assertions also catch semantic interference (a probe observing a
// half-installed class).
func TestForwardDuringBatchInstall(t *testing.T) {
	g := lineTopo(t, 6)
	c, err := New(Config{Topology: g, Clock: sim.New(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := linePath(6)
	first := core.Class{ID: 0, Path: path, Chain: policy.Chain{policy.Firewall, policy.IDS}, RateMbps: 100}
	if err := c.AddClass(first); err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if err := c.CheckClassEnforcement(first.ID); err != nil {
		t.Fatalf("pre-batch enforcement: %v", err)
	}

	var batch []core.Class
	chains := []policy.Chain{
		{policy.Firewall, policy.Proxy},
		{policy.NAT, policy.Firewall},
		{policy.IDS},
		{policy.Proxy, policy.IDS},
	}
	for i := 1; i <= 12; i++ {
		batch = append(batch, core.Class{
			ID:       core.ClassID(i),
			Path:     path,
			Chain:    chains[i%len(chains)],
			RateMbps: 60,
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hdr, err := c.FlowHeader(first.ID, uint32(r)<<4)
				if err != nil {
					t.Errorf("FlowHeader: %v", err)
					return
				}
				tr, err := c.Forward(hdr, path[0])
				if err != nil {
					t.Errorf("Forward during install: %v", err)
					return
				}
				if !tr.Delivered || tr.FinalHostTag != flowtable.HostTagFin {
					t.Errorf("probe degraded during install: %+v", tr)
					return
				}
				if len(tr.Instances) != len(first.Chain) {
					t.Errorf("probe visited %d instances during install, want %d",
						len(tr.Instances), len(first.Chain))
					return
				}
			}
		}(r)
	}

	if err := c.AddClassBatch(batch, BatchOptions{Verify: true}); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("AddClassBatch: %v", err)
	}
	close(stop)
	wg.Wait()

	if err := c.CheckEnforcement(); err != nil {
		t.Fatalf("post-batch enforcement: %v", err)
	}
	if err := c.CheckTables(); err != nil {
		t.Fatalf("post-batch shadow check: %v", err)
	}
}

// TestForwardDuringRefresh: readers build flow headers for installed
// classes and walk them through the data plane while the writer commits
// rate-only ReOptimize passes, whose refreshes rewrite the installed
// assignments' rate and generation in place. Run under -race it pins that
// a refresh writes only words no reader on another goroutine reads:
// FlowHeader and Forward read the class's path and prefix, and the walk
// reads the tables, which a refresh does not touch. Every probe stays
// enforced throughout.
func TestForwardDuringRefresh(t *testing.T) {
	c, prob, pl := hundredClassFixture(t)
	probs := []*core.Problem{withRates(prob, 1.25), prob}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cl := prob.Classes[i%len(prob.Classes)]
				hdr, err := c.FlowHeader(cl.ID, uint32(i)<<4)
				if err != nil {
					t.Errorf("FlowHeader: %v", err)
					return
				}
				tr, err := c.Forward(hdr, cl.Path[0])
				if err != nil || !tr.Delivered || len(tr.Instances) != len(cl.Chain) {
					t.Errorf("class %d walked %+v during a refresh, err %v", cl.ID, tr, err)
					return
				}
			}
		}(r)
	}
	for pass := 0; pass < 20; pass++ {
		rep, err := c.ReOptimize(probs[pass%2], pl, ReoptOptions{})
		if err != nil || rep.RateOnly != hundredClasses {
			close(stop)
			wg.Wait()
			t.Fatalf("pass %d: report %+v, err %v; want %d rate-only classes", pass, rep, err, hundredClasses)
		}
	}
	close(stop)
	wg.Wait()
}
