package controller_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/vnf"
)

// errLedgerFault is the fault TestLedgerGolden injects.
var errLedgerFault = errors.New("injected refresh fault")

// ledgerLines renders the live portion ledger one entry a line, by
// instance ID: the scenario, the phase, the instance and the entry's
// exact float bits.
func ledgerLines(scenario, phase string, c *controller.Controller) []string {
	ledger := c.Ledger()
	ids := make([]string, 0, len(ledger))
	for id := range ledger {
		ids = append(ids, string(id))
	}
	slices.Sort(ids)
	lines := make([]string, 0, len(ids))
	for _, id := range ids {
		lines = append(lines, fmt.Sprintf("%s %s %s %016x", scenario, phase, id, math.Float64bits(ledger[vnf.ID(id)])))
	}
	return lines
}

// TestLedgerGolden pins the live instance-portion ledger's exact float
// bits, which the least-loaded instance picks read and no digest holds
// (Snapshot re-sums the ledger from the class records). On GEANT and
// AS-3679 it is taken after a seed-1 day of the hourly loop — ReOptimize
// with reaping, Observe, the clock — and again after one more pass, the
// next day's first hour, unwound at its last rate-only refresh (the
// refresh:swap failpoint): every refresh and cutover the pass committed
// before it is taken back. A twin controller replaying the same day finds
// which refresh is the last. Each line of testdata/ledger.txt is a
// scenario, the phase, an instance and its entry's bits.
func TestLedgerGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/ledger.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, build := range []func(experiments.Options) (*experiments.Scenario, error){experiments.GEANT, experiments.AS3679} {
		r := newReplay(t, build, 1, false)
		day := func() *replayRun {
			run := r.start(t, 2)
			for h := range r.hours {
				if _, err := run.hour(h); err != nil {
					t.Fatalf("%s hour %d: %v", r.sc.Name, h, err)
				}
				run.tick(t)
			}
			return run
		}
		run, twin := day(), day()
		got = append(got, ledgerLines(r.sc.Name, "day", run.c)...)

		next := r.hours[0]
		refreshes := 0
		twin.c.SetFailpoint(func(p string) error {
			if strings.HasPrefix(p, "refresh:swap:") {
				refreshes++
			}
			return nil
		})
		if _, err := twin.c.ReOptimize(next.prob, next.pl, controller.ReoptOptions{Reap: true}); err != nil {
			t.Fatalf("%s: twin pass: %v", r.sc.Name, err)
		}
		if refreshes == 0 {
			t.Fatalf("%s: the pass refreshes no class", r.sc.Name)
		}
		seen := 0
		run.c.SetFailpoint(func(p string) error {
			if strings.HasPrefix(p, "refresh:swap:") {
				if seen++; seen == refreshes {
					return errLedgerFault
				}
			}
			return nil
		})
		if _, err := run.c.ReOptimize(next.prob, next.pl, controller.ReoptOptions{Reap: true}); !errors.Is(err, errLedgerFault) {
			t.Fatalf("%s: pass = %v, want the fault at refresh %d", r.sc.Name, err, refreshes)
		}
		run.c.SetFailpoint(nil)
		t.Logf("%s: pass unwound at refresh %d", r.sc.Name, refreshes)
		got = append(got, ledgerLines(r.sc.Name, "unwound", run.c)...)
	}
	if slices.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	t.Fatalf("%d ledger lines, ledger.txt has %d; this tree gives:\n%s", len(got), len(want), strings.Join(got, "\n"))
}
