// Command applereport regenerates the paper's whole evaluation — Table V
// and Figs 5–12 — in one pass and prints it as a markdown report in the
// shape of EXPERIMENTS.md. It is the one evaluation command: every
// measured number EXPERIMENTS.md quotes comes from its output.
//
// Usage:
//
//	applereport           # the full report at seed 1
//	applereport -seed 7   # the same report on other traffic and chains
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/apple-nfv/apple/internal/dataplane"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/orchestrator"
)

const (
	// draws is how many traffic matrices Figs 10 and 11 sample.
	draws = 6
	// snapshots is the series length behind Figs 10–12: 16 six-snapshot
	// re-optimisation windows in the Fig 12 replay.
	snapshots = 96
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()
	if err := report(os.Stdout, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "applereport: %v\n", err)
		os.Exit(1)
	}
}

// report writes every section, in paper order after Table V.
func report(w io.Writer, seed int64) error {
	fmt.Fprintf(w, "# APPLE evaluation report (seed %d)\n", seed)
	for _, section := range []func(io.Writer, int64) error{
		tableV, fig5, fig6, fig7, fig8, fig9, figs10to12,
	} {
		if err := section(w, seed); err != nil {
			return err
		}
	}
	return nil
}

// tableV solves each topology's 672-snapshot mean problem, the paper's
// Table V input, three times and reports the mean solve time.
func tableV(w io.Writer, seed int64) error {
	scs, err := experiments.All(experiments.Options{Seed: seed})
	if err != nil {
		return err
	}
	rows, err := experiments.TableV(scs, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Table V — optimization time (mean of 672 snapshots)\n\n")
	fmt.Fprintln(w, "| topology | nodes | links | classes | time | instances |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.3f s | %d |\n",
			r.Topology, r.Nodes, r.Links, r.Classes, r.SolveTime.Seconds(), r.Objective)
	}
	return nil
}

func fig5(w io.Writer, _ int64) error {
	fmt.Fprintf(w, "\n## Fig 5 — ClickOS VM initiation pipeline\n\n")
	fmt.Fprintln(w, "| step | share of boot | action |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, s := range orchestrator.BootSteps() {
		fmt.Fprintf(w, "| %d | %.0f%% | %s |\n", s.Seq, s.Share*100, s.Name)
	}
	return nil
}

func fig6(w io.Writer, _ int64) error {
	points, err := dataplane.OverloadCurve([]float64{
		1000, 2000, 4000, 6000, 8000, 10000, 11000, 12000, 13000, 16000, 20000, 28000,
	}, 2*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Fig 6 — monitor loss vs rate\n\n")
	fmt.Fprintln(w, "| rate (pps) | loss |")
	fmt.Fprintln(w, "|---|---|")
	for _, p := range points {
		fmt.Fprintf(w, "| %.0f | %.1f%% |\n", p.RatePPS, p.LossRate*100)
	}
	return nil
}

func fig7(w io.Writer, seed int64) error {
	var gaps, boots []float64
	for r := 0; r < 10; r++ {
		res, err := dataplane.SetupTimeExperiment(5000, 2*time.Second, 10*time.Second, seed+int64(r))
		if err != nil {
			return err
		}
		gaps = append(gaps, res.Gap.Seconds())
		boots = append(boots, res.BootTime.Seconds())
	}
	gs, err := metrics.Summarize(gaps)
	if err != nil {
		return err
	}
	bs, err := metrics.Summarize(boots)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Fig 7 — VM setup time\n\ngap %.2f–%.2f s (mean %.2f); boot %.2f–%.2f s (mean %.2f)\n",
		gs.Min, gs.Max, gs.Mean, bs.Min, bs.Max, bs.Mean)
	return nil
}

func fig8(w io.Writer, seed int64) error {
	fmt.Fprintf(w, "\n## Fig 8 — 20 MB transfer times\n\n")
	fmt.Fprintln(w, "| scenario | p50 | p90 |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, sc := range []dataplane.TransferScenario{
		dataplane.ScenarioNoFailover, dataplane.ScenarioWaitFiveSeconds,
		dataplane.ScenarioReconfigure, dataplane.ScenarioNaive,
	} {
		times, err := dataplane.TransferTimes(sc, dataplane.TransferConfig{Seed: seed})
		if err != nil {
			return err
		}
		cdf, err := metrics.NewCDF(times)
		if err != nil {
			return err
		}
		p50, err := cdf.Quantile(0.5)
		if err != nil {
			return err
		}
		p90, err := cdf.Quantile(0.9)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.3f s | %.3f s |\n", sc, p50, p90)
	}
	return nil
}

func fig9(w io.Writer, _ int64) error {
	det, err := dataplane.DetectionExperiment(1000, 10000, 3*time.Second, 8*time.Second, 12*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Fig 9 — detection timeline (loss %.2f%%)\n\n", det.TotalLoss*100)
	for _, e := range det.Events {
		fmt.Fprintf(w, "- t=%.2fs %s\n", e.At.Seconds(), e.What)
	}
	return nil
}

// figs10to12 builds the three replay topologies of §IX once (AS-3679
// appears only in Table V) and reports Figs 10, 11 and 12 on them.
func figs10to12(w io.Writer, seed int64) error {
	opts := experiments.Options{Seed: seed, Snapshots: snapshots}
	var scs []*experiments.Scenario
	for _, build := range []func(experiments.Options) (*experiments.Scenario, error){
		experiments.Internet2, experiments.GEANT, experiments.UNIV1,
	} {
		sc, err := build(opts)
		if err != nil {
			return err
		}
		scs = append(scs, sc)
	}

	tcam := make([]experiments.Fig10Row, len(scs))
	cores := make([]experiments.Fig11Row, len(scs))
	for i, sc := range scs {
		var err error
		if tcam[i], cores[i], err = experiments.Figs10And11(sc, draws); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\n## Fig 10 — TCAM reduction (%d matrices)\n\n", draws)
	fmt.Fprintln(w, "| topology | min | median | max |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, row := range tcam {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f |\n", row.Topology, row.Box.Min, row.Box.Median, row.Box.Max)
	}

	fmt.Fprintf(w, "\n## Fig 11 — cores vs ingress (%d matrices)\n\n", draws)
	fmt.Fprintln(w, "| topology | APPLE | ingress | reduction |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, row := range cores {
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2fx |\n", row.Topology, row.AppleCores, row.IngressCores, row.Reduction())
	}

	fmt.Fprintf(w, "\n## Fig 12 — loss with/without fast failover (%d snapshots)\n\n", snapshots)
	fmt.Fprintln(w, "| topology | loss (off) | loss (on) | avg extra cores | peak extra cores | refused windows (off/on) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, sc := range scs {
		off, err := experiments.Fig12(sc, snapshots, false)
		if err != nil {
			return err
		}
		on, err := experiments.Fig12(sc, snapshots, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.4f%% | %.4f%% | %.1f | %d | %d/%d of %d |\n",
			sc.Name, 100*off.MeanLoss, 100*on.MeanLoss, on.MeanExtraCores, on.PeakExtraCores,
			off.Refused(), on.Refused(), len(on.Windows))
	}
	return nil
}
