package controller_test

// Wrapped multi-day replays of the steady-state loop — warm Place, then
// ReOptimize with reaping, then Observe, then the clock — on the paper's
// WAN scenarios: the loop cmd/applebench's diurnal_reopt workload runs,
// with the handler state that loop grows and the transition count it
// reports pinned as counts.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/policy"
	"github.com/apple-nfv/apple/internal/sim"
	"github.com/apple-nfv/apple/internal/topology"
	"github.com/apple-nfv/apple/internal/traffic"
	"github.com/apple-nfv/apple/internal/vnf"
)

// replayHour is one snapshot of a replay: the rates, and the problem and
// placement the engine produced for them. The engine sees only rates, so
// the hours of a replay are computed once and replayed against as many
// fresh controllers as a test needs.
type replayHour struct {
	rates map[core.ClassID]float64
	prob  *core.Problem
	pl    *core.Placement
}

// replay is a scenario with its hours solved.
type replay struct {
	sc    *experiments.Scenario
	hours []replayHour
}

// newReplay solves one day of 24 hourly snapshots of the scenario at the
// given scenario seed. Unless keepNAT is set, chains lose their NAT, as in
// diurnal_reopt: re-optimising header-rewriting classes under failover
// runs out of global tags within days (finding 3).
func newReplay(t *testing.T, build func(experiments.Options) (*experiments.Scenario, error), seed int64, keepNAT bool) *replay {
	t.Helper()
	sc, err := build(experiments.Options{Seed: seed, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sc.MeanProblem()
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Classes {
		if !keepNAT {
			base.Classes[i].Chain = withoutNAT(base.Classes[i].Chain)
		}
	}
	eng, err := core.NewIncrementalEngine(base, core.IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := &replay{sc: sc}
	for _, tm := range sc.Series {
		h := replayHour{rates: make(map[core.ClassID]float64, len(base.Classes))}
		prob := *base
		prob.Classes = nil
		for _, cl := range base.Classes {
			rate := tm.At(int(cl.Path[0]), int(cl.Path[len(cl.Path)-1]))
			h.rates[cl.ID] = rate
			if rate > 0 {
				cl.RateMbps = rate
				prob.Classes = append(prob.Classes, cl)
			}
		}
		h.prob = &prob
		if h.pl, _, err = eng.Place(h.rates); err != nil {
			t.Fatalf("%s: place: %v", sc.Name, err)
		}
		r.hours = append(r.hours, h)
	}
	return r
}

// withoutNAT drops NAT from a chain; a chain of NAT alone becomes a
// firewall.
func withoutNAT(chain policy.Chain) policy.Chain {
	var ch policy.Chain
	for _, nf := range chain {
		if nf != policy.NAT {
			ch = append(ch, nf)
		}
	}
	if len(ch) == 0 {
		ch = policy.Chain{policy.Firewall}
	}
	return ch
}

// replayRun is one controller and handler replaying a replay's hours.
type replayRun struct {
	r     *replay
	c     *controller.Controller
	d     *controller.DynamicHandler
	clock *sim.Simulation
}

// start builds a fresh controller and handler whose hosts have headroom
// times the cores and memory the placement plans with (failover instances
// take cores the LP does not know about).
func (r *replay) start(t *testing.T, headroom int) *replayRun {
	t.Helper()
	hosts := make([]topology.NodeID, 0, len(r.sc.Avail))
	res := make(map[topology.NodeID]policy.Resources, len(r.sc.Avail))
	for v, a := range r.sc.Avail {
		hosts = append(hosts, v)
		res[v] = policy.Resources{Cores: headroom * a.Cores, MemoryMB: headroom * a.MemoryMB}
	}
	clock := sim.New()
	c, err := controller.New(controller.Config{
		Topology: r.sc.Graph, Clock: clock, Seed: r.sc.Seed,
		HostSwitches: hosts, HostResourcesBySwitch: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := controller.NewDynamicHandler(c)
	if err != nil {
		t.Fatal(err)
	}
	return &replayRun{r: r, c: c, d: d, clock: clock}
}

// hour replays snapshot h: ReOptimize with reaping, then Observe. It
// returns the transitions Observe handled, or the first refusal.
func (run *replayRun) hour(h int) (int, error) {
	hr := run.r.hours[h]
	if _, err := run.c.ReOptimize(hr.prob, hr.pl, controller.ReoptOptions{Reap: true}); err != nil {
		return 0, fmt.Errorf("reoptimize: %w", err)
	}
	n, err := run.d.Observe(hr.rates)
	if err != nil {
		return 0, fmt.Errorf("observe: %w", err)
	}
	return n, nil
}

// tick advances the clock by one snapshot.
func (run *replayRun) tick(t *testing.T) {
	t.Helper()
	if err := run.clock.AdvanceTo(run.clock.Now() + time.Duration(run.r.sc.SnapshotSeconds)*time.Second); err != nil {
		t.Fatal(err)
	}
}

// run replays days wrapped days on a fresh controller and handler at 2×
// headroom, calling each after every Observe, and returns the transitions
// handled.
func (r *replay) run(t *testing.T, days int, each func(c *controller.Controller, d *controller.DynamicHandler)) int {
	t.Helper()
	run := r.start(t, 2)
	transitions := 0
	for day := 0; day < days; day++ {
		for h := range r.hours {
			n, err := run.hour(h)
			if err != nil {
				t.Fatalf("%s day %d hour %d: %v", r.sc.Name, day, h, err)
			}
			transitions += n
			if each != nil {
				each(run.c, run.d)
			}
			run.tick(t)
		}
	}
	return transitions
}

// TestReplayReapsWithInvariantsHeld: reaping after a re-optimization and
// transaction unwinds cancel instances behind the handler's back, failover
// launches among them. Over a twelve-day GEANT replay the pool shrinks at
// least once, and at the end of every day the handler's invariants hold:
// its ledger holds cores only for launches the orchestrator still runs.
func TestReplayReapsWithInvariantsHeld(t *testing.T) {
	r := newReplay(t, experiments.GEANT, 1, false)
	hours, last, shrank := 0, 0, 0
	r.run(t, 12, func(c *controller.Controller, d *controller.DynamicHandler) {
		hours++
		pooled := c.PooledInstances()
		if pooled < last {
			shrank++
		}
		last = pooled
		if hours%24 == 0 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("day %d: %v", hours/24, err)
			}
		}
	})
	if shrank == 0 {
		t.Fatal("the pool never shrank: the replay reaped nothing")
	}
}

// TestTransitionCountRepeats (ROADMAP finding 7): a fixed four-day replay
// handles the same number of transitions on each of ten fresh controllers,
// on GEANT and on AS-3679 (under the race detector: GEANT, twice). Every
// float the handler compares against a threshold is summed in class order,
// so nothing in the loop depends on map iteration; with loads summed in map
// order the second GEANT controller handled 615 transitions to the first
// one's 768.
func TestTransitionCountRepeats(t *testing.T) {
	builds := []func(experiments.Options) (*experiments.Scenario, error){experiments.GEANT, experiments.AS3679}
	repeats := 10
	if controller.RaceDetector {
		builds, repeats = builds[:1], 2
	}
	for _, build := range builds {
		r := newReplay(t, build, 1, false)
		want := r.run(t, 4, nil)
		if want == 0 {
			t.Fatalf("%s: the replay handled no transition", r.sc.Name)
		}
		for rep := 1; rep < repeats; rep++ {
			if got := r.run(t, 4, nil); got != want {
				t.Fatalf("%s: repeat %d handled %d transitions, the first run %d", r.sc.Name, rep, got, want)
			}
		}
		t.Logf("%s: %d transitions in 4 days, %d times", r.sc.Name, want, repeats)
	}
}

// warmLoop is experiments.Replay's loop opened up for tests: one
// controller, handler and warm engine over the series-mean class set of a
// 96-snapshot scenario, re-planned every six snapshots on the window mean
// with Verify, Reap and the handler's audit. Where Replay only reports a
// window's outcome, a test can stop at a window and look inside.
type warmLoop struct {
	sc    *experiments.Scenario
	base  *core.Problem
	c     *controller.Controller
	d     *controller.DynamicHandler
	eng   *core.IncrementalEngine
	clock *sim.Simulation
}

const warmWindow = 6

func newWarmLoop(t *testing.T, build func(experiments.Options) (*experiments.Scenario, error)) *warmLoop {
	t.Helper()
	sc, err := build(experiments.Options{Seed: 1, Snapshots: 96})
	if err != nil {
		t.Fatal(err)
	}
	l := &warmLoop{sc: sc, clock: sim.New()}
	if l.base, err = sc.MeanProblem(); err != nil {
		t.Fatal(err)
	}
	l.c = l.newController(t)
	if l.d, err = controller.NewDynamicHandler(l.c); err != nil {
		t.Fatal(err)
	}
	if l.eng, err = core.NewIncrementalEngine(l.base, core.IncrementalOptions{}); err != nil {
		t.Fatal(err)
	}
	return l
}

// newController builds a controller on the scenario's hosts and the loop's
// clock.
func (l *warmLoop) newController(t *testing.T) *controller.Controller {
	t.Helper()
	hosts := make([]topology.NodeID, 0, len(l.sc.Avail))
	for v := range l.sc.Avail {
		hosts = append(hosts, v)
	}
	c, err := controller.New(controller.Config{
		Topology: l.sc.Graph, Clock: l.clock, Seed: l.sc.Seed,
		HostSwitches: hosts, HostResourcesBySwitch: l.sc.Avail,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rates maps a traffic matrix onto the class set by OD pair.
func (l *warmLoop) rates(tm *traffic.Matrix) map[core.ClassID]float64 {
	return classRates(l.base, tm)
}

// place solves window w's mean rates and returns them with the problem
// and placement ReOptimize is given.
func (l *warmLoop) place(t *testing.T, w int) (map[core.ClassID]float64, *core.Problem, *core.Placement) {
	t.Helper()
	mean, err := traffic.Mean(l.sc.Series[w*warmWindow : (w+1)*warmWindow])
	if err != nil {
		t.Fatal(err)
	}
	rates := l.rates(mean)
	pl, _, err := l.eng.Place(rates)
	if err != nil {
		t.Fatalf("window %d: place: %v", w, err)
	}
	prob := *l.base
	prob.Classes = nil
	for _, cl := range l.base.Classes {
		if r := rates[cl.ID]; r > 0 {
			cl.RateMbps = r
			prob.Classes = append(prob.Classes, cl)
		}
	}
	return rates, &prob, pl
}

// reopt is the loop's re-optimisation pass, with or without probes.
func (l *warmLoop) reopt(prob *core.Problem, pl *core.Placement, verify bool) (*controller.ReoptReport, error) {
	return l.c.ReOptimize(prob, pl, controller.ReoptOptions{Verify: verify, Reap: true, Audit: l.d.CheckInvariants})
}

// window commits window w's placement and replays its snapshots.
func (l *warmLoop) window(t *testing.T, w int, failover bool) {
	t.Helper()
	_, prob, pl := l.place(t, w)
	if _, err := l.reopt(prob, pl, true); err != nil {
		t.Fatalf("window %d: reoptimize: %v", w, err)
	}
	for s := w * warmWindow; s < (w+1)*warmWindow; s++ {
		rates := l.rates(l.sc.Series[s])
		if failover {
			if _, err := l.d.Observe(rates); err != nil {
				t.Fatalf("snapshot %d: observe: %v", s, err)
			}
		}
		if _, err := l.c.LossRate(rates); err != nil {
			t.Fatal(err)
		}
		if err := l.clock.AdvanceTo(l.clock.Now() + time.Duration(l.sc.SnapshotSeconds)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKnownGapRateOnlyReoptStrandsNewInstances pins a known gap (ROADMAP
// item 6). On Internet2's second Fig 12 window the demand rises, the
// engine plans more instances, and ReOptimize provisions them — but every
// class keeps its sub-class split, so every class is a rate-only refresh
// that keeps its instance bindings. The new instances stay idle and the
// old ones run overloaded: on the window-mean rates the warm controller
// loses about 11 % of the traffic, while a fresh controller installing the
// same problem and placement loses none. This is why Fig 12's no-failover
// loss rose when the replay became one warm loop. When item 6 makes
// re-optimisation use what it provisions, this test fails: flip it into
// an assertion that the two losses agree.
func TestKnownGapRateOnlyReoptStrandsNewInstances(t *testing.T) {
	l := newWarmLoop(t, experiments.Internet2)
	l.window(t, 0, false)
	rates, prob, pl := l.place(t, 1)
	rep, err := l.reopt(prob, pl, true)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	warm, err := l.c.LossRate(rates)
	if err != nil {
		t.Fatal(err)
	}
	fresh := l.newController(t)
	if err := fresh.InstallPlacement(prob, pl); err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.LossRate(rates)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report %+v; loss warm %.4f, fresh install %.4f", *rep, warm, cold)
	if rep.Provisioned == 0 || rep.RateOnly == 0 || rep.Updated != 0 {
		t.Fatalf("the setup moved: report %+v, want instances provisioned under rate-only refreshes", *rep)
	}
	if warm < 0.05 || cold > 0.01 {
		t.Fatalf("known gap closed? warm loss %.4f, fresh install %.4f (was ≈0.108 vs 0)", warm, cold)
	}
}

// TestReoptVerifyAgreesWithEnforcement: on GEANT's second Fig 12 window
// under failover, the commit's enforcement probes and CheckEnforcement
// agree. They used to disagree: the probes refused the re-optimisation
// (class 15, firewall→ids, was probed through one of its two NFs) while
// the pass committed without probes passed CheckEnforcement. The probes
// were right: a failover sub-class had moved to a switch without a
// host-match rule, so its packets passed that switch by and skipped the
// NF there.
func TestReoptVerifyAgreesWithEnforcement(t *testing.T) {
	l := newWarmLoop(t, experiments.GEANT)
	l.window(t, 0, true)
	_, prob, pl := l.place(t, 1)
	if _, err := l.reopt(prob, pl, true); err != nil {
		t.Fatalf("verified pass: %v", err)
	}
	if err := l.c.CheckEnforcement(); err != nil {
		t.Fatalf("enforcement after the verified pass: %v", err)
	}
}

// globalTagHolders logs, per hosting switch, the global tags live
// sub-classes of header-rewriting classes hold there, and returns the most
// tags any one host holds.
func globalTagHolders(t *testing.T, c *controller.Controller) (fullest int) {
	t.Helper()
	held := make(map[topology.NodeID]map[uint8][]string)
	for _, id := range c.Classes() {
		a, err := c.Assignment(id)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Global {
			continue
		}
		for s := 0; s < a.NumSubclasses(); s++ {
			sub := a.Subclass(s)
			seen := make(map[topology.NodeID]bool, len(sub.Hops))
			for _, h := range sub.Hops {
				v := a.Class.Path[h]
				if seen[v] {
					continue
				}
				seen[v] = true
				if held[v] == nil {
					held[v] = make(map[uint8][]string)
				}
				held[v][a.Tag(s)] = append(held[v][a.Tag(s)], fmt.Sprintf("%d/%d", id, s))
			}
		}
	}
	marked := c.GlobalTags()
	hosts := make([]topology.NodeID, 0, len(marked))
	for v := range marked {
		hosts = append(hosts, v)
	}
	slices.Sort(hosts)
	for _, v := range hosts {
		fullest = max(fullest, len(marked[v]))
		t.Logf("host %d: %d global tags held, as tag:[class/sub-class]: %v", v, len(marked[v]), held[v])
	}
	return fullest
}

// TestKnownGapFinding3 pins a known gap (ROADMAP item 1(b), finding 3 of
// cmd/applebench's README). AS-3679 at scenario seed 3, NAT chains kept,
// replayed hour by hour — warm Place, ReOptimize with reaping, Observe —
// as diurnal_reopt replays: ReOptimize is refused for want of a
// conflict-free global tag within the first day, at hour 16 (class 0)
// with hosts at 2× the planned cores and at hour 10 (class 212) at 1×.
// The hour and the class follow the optimal LP vertex the placements end
// on (ROADMAP item 27), so a change to the solver's pivot path moves them.
// (Hours 9 and 11, classes 17 and 0, while the portion ledger also took
// back what the handler's sub-classes were never charged: its negative
// entries drew instance picks to spawned firewalls.) At the refusal one
// host's live sub-classes hold all 32 global tags: the tag space is a
// function of live state, and live state has outgrown it. When 1(b) lands
// this test fails: flip it into an assertion that the day replays clean.
func TestKnownGapFinding3(t *testing.T) {
	r := newReplay(t, experiments.AS3679, 3, true)
	for _, tc := range []struct {
		headroom, hour int
		class          core.ClassID
	}{{2, 16, 0}, {1, 10, 212}} {
		run := r.start(t, tc.headroom)
		h, err := 0, error(nil)
		for ; h < len(r.hours); h++ {
			if _, err = run.hour(h); err != nil {
				break
			}
			run.tick(t)
		}
		if err == nil {
			t.Fatalf("known gap closed? %s seed 3 at %d× headroom replays a day without refusal", r.sc.Name, tc.headroom)
		}
		t.Logf("%d× headroom, hour %d: %v", tc.headroom, h, err)
		want := fmt.Sprintf("no conflict-free global tag for class %d ", tc.class)
		if h != tc.hour || !strings.Contains(err.Error(), want) {
			t.Errorf("%d× headroom: refused at hour %d with %q, want hour %d with %q", tc.headroom, h, err, tc.hour, want)
		}
		if fullest := globalTagHolders(t, run.c); fullest != 32 {
			t.Errorf("%d× headroom: fullest host holds %d of 32 global tags; want 32", tc.headroom, fullest)
		}
	}
}

// TestReoptHistoryIndependent (ROADMAP items 15(b) and 25(a)): a
// re-optimised controller holds what a fresh one installing the same hour
// holds, on seed 1's day at 2× headroom with NAT stripped. One controller
// applies an hour sequence, each hour as a ReOptimize with reaping; a
// fresh one applies the sequence's last hour alone. Two sequences: hours
// 0, 2 and 0 again on three topologies, and the whole day, hours 0…23 and
// then 0 again, on all four.
//
// Both end with the same rules on every switch, rule for rule, routes
// included, and the same steering rules by name on every host; the ports
// those steer through follow the instances, whose IDs differ unless the
// case says they are the same, and then the portion ledgers must be equal
// too (before the ledger was read off the class records, the short trip
// left it off by up to 2.3e-13 in 3 of Internet2's 17 and 14 of UNIV1's
// 23 entries). The fresh controller runs exactly the hour's planned
// instances in every (switch, NF) pool. One known gap is pinned as what it
// leaves: the day leaves GEANT and AS-3679 with more instances than a
// fresh controller (25(b)), in the pools listed in surplus.
//
// Routes and host-match rows used to be gaps too. Routes were installed
// skip-if-present and never retired, so UNIV1 kept 23 routes after the
// short trip and 83 after the day (232 and 292 rules against 209); they
// now live while a class crosses their switch. The host-match rows, of
// which the short trip left 5 more on UNIV1, are New's.
func TestReoptHistoryIndependent(t *testing.T) {
	day := make([]int, 0, 25)
	for h := 0; h < 24; h++ {
		day = append(day, h)
	}
	day = append(day, 0)
	type counts struct{ instances, rules int }
	for _, tc := range []struct {
		name    string
		build   func(experiments.Options) (*experiments.Scenario, error)
		hours   []int
		sameIDs bool
		// fresh is what the fresh controller holds, and instances what the
		// sequence leaves where item 25(b) makes it differ.
		fresh     counts
		instances int
		// surplus lists, as "switch/NF+n", the pools the sequence leaves
		// larger than the hour's plan; none is smaller.
		surplus []string
	}{
		{name: "Internet2/0-2-0", build: experiments.Internet2, hours: []int{0, 2, 0}, sameIDs: true, fresh: counts{17, 258}},
		{name: "GEANT/0-2-0", build: experiments.GEANT, hours: []int{0, 2, 0}, fresh: counts{29, 409}},
		{name: "UNIV1/0-2-0", build: experiments.UNIV1, hours: []int{0, 2, 0}, sameIDs: true, fresh: counts{23, 209}},
		{name: "Internet2/day", build: experiments.Internet2, hours: day, fresh: counts{17, 258}},
		{name: "GEANT/day", build: experiments.GEANT, hours: day, fresh: counts{29, 409}, instances: 40,
			surplus: []string{"0/firewall+1", "0/proxy+1", "0/ids+2", "4/firewall+3", "4/proxy+1", "6/proxy+1", "6/ids+2"}},
		{name: "UNIV1/day", build: experiments.UNIV1, hours: day, fresh: counts{23, 209}},
		{name: "AS-3679/day", build: experiments.AS3679, hours: day, fresh: counts{50, 1860}, instances: 57,
			surplus: []string{"3/proxy+1", "3/ids+1", "6/firewall+1", "6/proxy+1", "8/firewall+1", "21/ids+1", "23/firewall+1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplay(t, tc.build, 1, false)
			apply := func(run *replayRun, hours ...int) controller.Snapshot {
				for _, h := range hours {
					hr := r.hours[h]
					if _, err := run.c.ReOptimize(hr.prob, hr.pl, controller.ReoptOptions{Reap: true}); err != nil {
						t.Fatalf("hour %d: %v", h, err)
					}
				}
				return run.c.Snapshot()
			}
			trip, fresh := apply(r.start(t, 2), tc.hours...), apply(r.start(t, 2), tc.hours[len(tc.hours)-1])
			tripRules, freshRules := ruleLines(trip), ruleLines(fresh)
			got := counts{len(trip.Instances), len(tripRules)}
			gotFresh := counts{len(fresh.Instances), len(freshRules)}
			t.Logf("%+v after the sequence, %+v fresh", got, gotFresh)
			want := tc.fresh
			if tc.instances != 0 {
				want.instances = tc.instances
			}
			if got != want || gotFresh != tc.fresh {
				t.Errorf("%+v after the sequence and %+v fresh, want %+v and %+v", got, gotFresh, want, tc.fresh)
			}
			if !slices.Equal(tripRules, freshRules) {
				t.Errorf("the rules differ:\n  after the sequence %v\n  fresh %v", tripRules, freshRules)
			}
			if tc.sameIDs && !maps.Equal(trip.Portions, fresh.Portions) {
				t.Errorf("the portion ledgers differ:\n  after the sequence %v\n  fresh %v", trip.Portions, fresh.Portions)
			}
			plan := r.hours[tc.hours[len(tc.hours)-1]].pl.Counts
			if diff := poolSurplus(fresh.Pools, plan); len(diff) != 0 {
				t.Errorf("the fresh controller's pools differ from the plan: %v", diff)
			}
			if diff := poolSurplus(trip.Pools, plan); !slices.Equal(diff, tc.surplus) {
				t.Errorf("the sequence leaves pools off the plan by %v, want %v", diff, tc.surplus)
			}
		})
	}
}

// poolSurplus lists each (switch, NF) pool whose size differs from the
// plan's count, as "switch/NF+n" (or -n), by switch and then NF.
func poolSurplus(pools map[topology.NodeID]map[policy.NF][]vnf.ID, plan map[topology.NodeID]map[policy.NF]int) []string {
	type pool struct {
		v  topology.NodeID
		nf policy.NF
	}
	size := make(map[pool]int)
	for v, byNF := range pools {
		for nf, insts := range byNF {
			size[pool{v, nf}] += len(insts)
		}
	}
	for v, byNF := range plan {
		for nf, n := range byNF {
			size[pool{v, nf}] -= n
		}
	}
	keys := make([]pool, 0, len(size))
	for p := range size {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, func(a, b pool) int {
		return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.nf, b.nf))
	})
	var out []string
	for _, p := range keys {
		if n := size[p]; n != 0 {
			out = append(out, fmt.Sprintf("%d/%v%+d", p.v, p.nf, n))
		}
	}
	return out
}

// ruleLines returns a snapshot's rules, one sorted line each: a switch's
// rules in full, a host's steering rules by name alone, since the ports
// they steer through follow instance IDs.
func ruleLines(s controller.Snapshot) []string {
	var lines []string
	for _, tbl := range s.Tables {
		for _, r := range tbl.Rules {
			if tbl.VSwitch {
				lines = append(lines, fmt.Sprintf("host %d %s", tbl.Node, r.Name))
			} else {
				lines = append(lines, fmt.Sprintf("switch %d table %d %v", tbl.Node, tbl.Table, r))
			}
		}
	}
	slices.Sort(lines)
	return lines
}
