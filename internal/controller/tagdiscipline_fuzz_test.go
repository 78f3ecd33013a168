package controller

// FuzzTagDiscipline: a stateful fuzz of the sub-class tag discipline. A
// controller and its Dynamic Handler take arrivals, removals, surges and
// calms, re-optimizations, and transactions of several deltas failed at an
// injected fault, of up to four classes on a 4-switch line,
// their chains drawn from {Firewall}, {NAT} and {NAT, Firewall}, so
// header-rewriting classes share hosts with each other and with classes
// that multiplex local tags. The oracle runs after every op.

import (
	"fmt"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
)

// tagOps bounds the ops one input drives.
const tagOps = 24

// runTagDiscipline is the body of FuzzTagDiscipline. The input's first
// bytes draw one to four classes — a chain, an ingress at switch 0, 1 or
// 2 with switch 3 the egress, a rate — and every two bytes after them one
// op on one of those classes:
//
//   - AddClass;
//   - a transaction committing the class's removal alone;
//   - Observe at three times (surge) or a third of (calm) every installed
//     class's rate, then three seconds of the clock, which boots and
//     activates what the handler spawned;
//   - ReOptimize to SolveGreedy's placement of the installed classes;
//   - one transaction of two or three deltas, each on a class drawn from
//     the input, the same one possibly twice: an add, a refresh to a drawn
//     rate, an update to SolveGreedy's distribution of the class alone, or
//     a removal. The next byte picks the failpoint armed: the commit fails
//     at the n-th one fired, if it fires that many (0 arms none).
//
// After every op CheckInvariants holds: among its clauses, no two
// header-rewriting classes share a tag at a host both visit. An op that
// returns an error leaves the installed state byte for byte as it found
// it.
func runTagDiscipline(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := lineTopo(t, 4)
	clock := sim.New()
	c, err := New(Config{Topology: g, Clock: clock, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	chains := []policy.Chain{{policy.Firewall}, {policy.NAT}, {policy.NAT, policy.Firewall}}
	classes := make([]core.Class, 1+next()%4)
	for i := range classes {
		classes[i] = core.Class{
			ID:       core.ClassID(i),
			Chain:    chains[next()%len(chains)],
			Path:     linePath(4)[next()%3:],
			RateMbps: float64(100 * (1 + next()%8)),
		}
	}
	installed := func() []core.Class {
		var out []core.Class
		for _, id := range c.Classes() {
			a, _ := c.assign.get(id)
			out = append(out, a.Class)
		}
		return out
	}
	for op := 0; op < tagOps && len(data) > 0; op++ {
		before := c.Snapshot().String()
		b := next()
		kind, surge, cl := b%5, b/5%2 == 0, classes[next()%len(classes)]
		var what string
		var err error
		switch kind {
		case 0:
			what = "add"
			err = c.AddClass(cl)
		case 1:
			what = "remove"
			txn := c.Begin()
			txn.StageRemove(cl.ID)
			err = txn.Commit(TxnOptions{})
		case 2:
			what = "calm"
			factor := 1.0 / 3
			if surge {
				what, factor = "surge", 3
			}
			rates := make(map[core.ClassID]float64)
			for _, in := range installed() {
				rates[in.ID] = classes[in.ID].RateMbps * factor
			}
			if _, err = d.Observe(rates); err == nil {
				if aerr := clock.AdvanceTo(clock.Now() + 3*time.Second); aerr != nil {
					t.Fatalf("op %d (%s): clock: %v", op, what, aerr)
				}
			}
		case 3:
			what = "reoptimize"
			prob := &core.Problem{Topo: g, Classes: installed(), Avail: c.Avail()}
			pl, perr := core.SolveGreedy(prob)
			if perr != nil {
				continue
			}
			_, err = c.ReOptimize(prob, pl, ReoptOptions{})
		default:
			what = "txn"
			txn := c.Begin()
			for i := 0; i < 2+b/5%2; i++ {
				// The first delta is on cl, each later one on a class it
				// draws after its kind.
				d, dcl := next(), cl
				if i > 0 {
					dcl = classes[next()%len(classes)]
				}
				switch d % 4 {
				case 0:
					what += fmt.Sprintf(" add %d", dcl.ID)
					txn.StageAdd(dcl)
				case 1:
					what += fmt.Sprintf(" refresh %d", dcl.ID)
					txn.StageRefresh(dcl.ID, float64(100*(1+d/4%8)))
				case 2:
					what += fmt.Sprintf(" update %d", dcl.ID)
					prob := &core.Problem{Topo: g, Classes: []core.Class{dcl}, Avail: c.Avail()}
					if pl, perr := core.SolveGreedy(prob); perr == nil {
						txn.StageUpdate(dcl, pl.Dist[dcl.ID])
					}
				default:
					what += fmt.Sprintf(" remove %d", dcl.ID)
					txn.StageRemove(dcl.ID)
				}
			}
			armed, fired := next()%20, 0
			c.failpoint = func(string) error {
				if fired++; fired == armed {
					return errInjected
				}
				return nil
			}
			err = txn.Commit(TxnOptions{})
			c.failpoint = nil
		}
		if err != nil {
			if after := c.Snapshot().String(); after != before {
				t.Fatalf("op %d (%s of class %d) failed with %v and changed the state: %s",
					op, what, cl.ID, err, firstDiff(before, after))
			}
		}
		if ierr := d.CheckInvariants(); ierr != nil {
			t.Fatalf("op %d (%s of class %d, err %v): %v", op, what, cl.ID, err, ierr)
		}
	}
}

// FuzzTagDiscipline runs runTagDiscipline; its five seeds also run in
// plain `go test`. The fourth draws one {Firewall} class over the whole
// line, adds it, removes it — the last class toward switch 3, so every
// route toward it retires — and adds it back. The fifth draws two
// {Firewall} classes over the whole line and adds class 0; then one
// transaction adds class 1, updates it and removes class 0, and fails at
// the removal's retire step, the fourteenth failpoint fired: its unwind
// must take class 1's update back before its admission.
func FuzzTagDiscipline(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(splitSeed(seed, 5+2*tagOps))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 0, 9, 1, 0, 2, 1, 3, 0, 14})
	f.Fuzz(runTagDiscipline)
}
