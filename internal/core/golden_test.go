package core_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/metrics"
)

// TestColdSolveGolden pins the vertex path of the cold solves the
// paper_lifecycle benchmark runs: each paper topology's 24-snapshot mean
// problem, rebuilt as a policy hierarchy and solved by Engine, at scenario
// seeds 1–3. Per solve it records the phase-1, phase-2 and dual pivots, the
// bits of the cold LP objective, and digests of the placement's Counts and
// Dist. testdata/cold_solves.txt was last written when the cold solve
// moved to the dual simplex's start (every pivot is a dual pivot; Counts
// did not move); any change to term order, to the merge of duplicate
// terms, or to a pivot rule shows here.
func TestColdSolveGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/cold_solves.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for seed := int64(1); seed <= 3; seed++ {
		scs, err := experiments.All(experiments.Options{Seed: seed, Snapshots: 24})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			got = append(got, coldSolveLine(t, sc, seed))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d solves, cold_solves.txt has %d lines; this tree gives:\n%s",
			len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("solve %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// coldSolveLine solves sc's mean problem the way paper_lifecycle does and
// formats one golden line.
func coldSolveLine(t *testing.T, sc *experiments.Scenario, seed int64) string {
	t.Helper()
	prob := hierarchyProblem(t, sc)
	core.Objectives = core.Objectives[:0]
	before := metrics.LP.Snapshot()
	pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
	}
	d := metrics.LP.Snapshot().Sub(before)
	if len(core.Objectives) == 0 {
		t.Fatalf("%s seed %d: no certified solve", sc.Name, seed)
	}
	return fmt.Sprintf("%s seed=%d p1=%d p2=%d dual=%d obj=%016x counts=%s dist=%s",
		strings.ReplaceAll(sc.Name, " ", "_"), seed, d.Phase1Pivots, d.Phase2Pivots, d.DualPivots,
		math.Float64bits(core.Objectives[0]), countsDigest(pl), distDigest(pl))
}

// TestWarmPlaceGolden is TestColdSolveGolden's counterpart on the warm
// path Replay, Fig 12 and diurnal_reopt run: each paper topology's
// 24-snapshot mean problem at scenario seed 1 seeds an IncrementalEngine,
// and the 24 hourly snapshots are fed through Place in order. Per Place it
// records the pivots, the dual pivots, whether the carried basis was
// accepted, the instance total, and digests of the placement's Counts and
// Dist (or the error, if Place refuses the snapshot). Any change to the
// warm model's layout, to the bounds Place retargets or to the shared
// round-and-repair tail shows here.
func TestWarmPlaceGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/warm_places.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	scs, err := experiments.All(experiments.Options{Seed: 1, Snapshots: 24})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range scs {
		got = append(got, warmPlaceLines(t, sc)...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d places, warm_places.txt has %d lines; this tree gives:\n%s",
			len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("place %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// warmPlaceLines replays sc's snapshots through one IncrementalEngine and
// formats one golden line per Place.
func warmPlaceLines(t *testing.T, sc *experiments.Scenario) []string {
	t.Helper()
	prob, err := sc.MeanProblem()
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	eng, err := core.NewIncrementalEngine(prob, core.IncrementalOptions{})
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	name := strings.ReplaceAll(sc.Name, " ", "_")
	var out []string
	for k, tm := range sc.Series {
		rates := make(map[core.ClassID]float64, len(prob.Classes))
		for _, c := range prob.Classes {
			rates[c.ID] = tm.At(int(c.Path[0]), int(c.Path[len(c.Path)-1]))
		}
		pl, st, err := eng.Place(rates)
		line := fmt.Sprintf("%s snap=%d pivots=%d dual=%d warm=%t", name, k, st.Pivots, st.DualPivots, st.WarmAccepted)
		if err != nil {
			line += fmt.Sprintf(" err=%q", err.Error())
		} else {
			line += fmt.Sprintf(" inst=%d counts=%s dist=%s", pl.TotalInstances(), countsDigest(pl), distDigest(pl))
		}
		out = append(out, line)
	}
	return out
}

// countsDigest hashes q_n^v in (switch, NF) order.
func countsDigest(pl *core.Placement) string {
	var b strings.Builder
	for _, v := range sortedKeys(pl.Counts) {
		for _, nf := range sortedKeys(pl.Counts[v]) {
			fmt.Fprintf(&b, "%d/%d=%d;", v, nf, pl.Counts[v][nf])
		}
	}
	return shortSum(b.String())
}

// distDigest hashes the bits of every d value in class order.
func distDigest(pl *core.Placement) string {
	var b strings.Builder
	for _, id := range sortedKeys(pl.Dist) {
		fmt.Fprintf(&b, "%d:", id)
		for _, row := range pl.Dist[id] {
			for _, x := range row {
				fmt.Fprintf(&b, "%x,", math.Float64bits(x))
			}
		}
	}
	return shortSum(b.String())
}

func shortSum(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }

func sortedKeys[K ~int, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
