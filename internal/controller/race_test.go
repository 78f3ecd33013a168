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
