package flowtable

import (
	"fmt"
	"sync"
	"testing"
)

// Concurrency tests for the Lookup-while-Install guarantee. They are
// meaningful under -race: readers (Lookup, Process, Rules, Shadowed) run
// against writers (Install, Remove, ApplyBatch) on the same table and
// pipeline, and every lookup must see a consistent rule list — either
// before or after each batch, never a torn one.

func raceRule(i int, prio int) Rule {
	return Rule{
		Name:     fmt.Sprintf("r%d", i),
		Priority: prio,
		Match:    Match{}.WithSubTag(uint8(i) & MaxSubTag),
		Actions:  []Action{{Type: ActForward, Port: i}},
	}
}

func TestConcurrentLookupWhileInstall(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Install(Rule{
		Name: "base", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 99}},
	}); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	const rounds = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pkt := Packet{SubTag: uint8(r)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rule, ok := tbl.Lookup(pkt)
				if !ok {
					t.Errorf("lookup lost the base rule")
					return
				}
				if rule.Name != "base" && rule.Name != fmt.Sprintf("r%d", r) {
					// Higher-priority rules only ever match their own tag.
					t.Errorf("packet with tag %d matched %q", r, rule.Name)
					return
				}
				_ = tbl.Shadowed()
				_ = tbl.Rules()
				_ = tbl.Names()
			}
		}(r)
	}
	for i := 0; i < rounds; i++ {
		if err := tbl.Install(raceRule(i%readers, 10)); err != nil {
			t.Fatal(err)
		}
		tbl.Remove(fmt.Sprintf("r%d", i%readers))
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentProcessWhileApplyBatch(t *testing.T) {
	pl, err := NewPipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := pl.Table(0)
	t1, _ := pl.Table(1)
	if err := t0.Install(Rule{
		Name: "goto", Priority: 0,
		Actions: []Action{{Type: ActGotoTable, Table: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Install(Rule{
		Name: "deliver", Priority: 0,
		Actions: []Action{{Type: ActForward, Port: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				pkt := &Packet{SubTag: uint8(r)}
				res, err := pl.Process(pkt)
				if err != nil {
					t.Errorf("process: %v", err)
					return
				}
				if res.Disposition != DispForward {
					t.Errorf("packet %d got %v", r, res.Disposition)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		ops := make([]BatchOp, 0, 8)
		for j := 0; j < 4; j++ {
			ops = append(ops, BatchOp{Remove: fmt.Sprintf("r%d", j)})
			ops = append(ops, BatchOp{Rule: raceRule(j, 5)})
		}
		if _, err := t0.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
