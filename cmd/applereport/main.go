// Command applereport runs the entire evaluation — Table V, Figs 6–12 —
// in one pass and emits a markdown report in the shape of EXPERIMENTS.md,
// so the paper-vs-measured record can be regenerated with a single
// command.
//
// Usage:
//
//	applereport                   # full report to stdout
//	applereport -quick            # smaller draws/snapshots for a fast pass
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/apple-nfv/apple/internal/dataplane"
	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/metrics"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		quick = flag.Bool("quick", false, "smaller draws and replay for a fast pass")
		seed  = flag.Int64("seed", 1, "deterministic seed")
	)
	flag.Parse()
	draws, snapshots := 6, 96
	if *quick {
		draws, snapshots = 3, 48
	}
	if err := report(os.Stdout, *seed, draws, snapshots); err != nil {
		fmt.Fprintf(os.Stderr, "applereport: %v\n", err)
		return 1
	}
	return 0
}

func report(w *os.File, seed int64, draws, snapshots int) error {
	opts := experiments.Options{Seed: seed, Snapshots: maxInt(snapshots, 48)}
	fmt.Fprintf(w, "# APPLE evaluation report (seed %d, %d draws, %d snapshots)\n\n", seed, draws, snapshots)

	// Table V.
	scs, err := experiments.All(opts)
	if err != nil {
		return err
	}
	rows, err := experiments.TableV(scs, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table V — optimization time\n\n")
	fmt.Fprintln(w, "| topology | nodes | links | classes | time | instances |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %v | %d |\n",
			r.Topology, r.Nodes, r.Links, r.Classes, r.SolveTime.Round(time.Millisecond), r.Objective)
	}

	// Fig 6.
	fmt.Fprintf(w, "\n## Fig 6 — monitor loss vs rate\n\n")
	fmt.Fprintln(w, "| rate (pps) | loss |")
	fmt.Fprintln(w, "|---|---|")
	points, err := dataplane.OverloadCurve([]float64{4000, 8000, 12000, 13000, 16000, 24000}, 2*time.Second)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "| %.0f | %.1f%% |\n", p.RatePPS, p.LossRate*100)
	}

	// Fig 7.
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

	// Fig 8.
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

	// Fig 9.
	det, err := dataplane.DetectionExperiment(1000, 10000, 3*time.Second, 8*time.Second, 12*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Fig 9 — detection timeline (loss %.2f%%)\n\n", det.TotalLoss*100)
	for _, e := range det.Events {
		fmt.Fprintf(w, "- t=%.2fs %s\n", e.At.Seconds(), e.What)
	}

	// Figs 10–12 on the three replay topologies.
	builders := []func(experiments.Options) (*experiments.Scenario, error){
		experiments.Internet2, experiments.GEANT, experiments.UNIV1,
	}
	fmt.Fprintf(w, "\n## Fig 10 — TCAM reduction\n\n")
	fmt.Fprintln(w, "| topology | min | median | max |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, b := range builders {
		sc, err := b(opts)
		if err != nil {
			return err
		}
		row, err := experiments.Fig10(sc, draws)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f |\n", row.Topology, row.Box.Min, row.Box.Median, row.Box.Max)
	}
	fmt.Fprintf(w, "\n## Fig 11 — cores vs ingress\n\n")
	fmt.Fprintln(w, "| topology | APPLE | ingress | reduction |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, b := range builders {
		sc, err := b(opts)
		if err != nil {
			return err
		}
		row, err := experiments.Fig11(sc, draws)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2fx |\n", row.Topology, row.AppleCores, row.IngressCores, row.Reduction())
	}
	fmt.Fprintf(w, "\n## Fig 12 — loss with/without fast failover\n\n")
	fmt.Fprintln(w, "| topology | loss (off) | loss (on) | avg extra cores | refused windows (off/on) |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, b := range builders {
		sc, err := b(opts)
		if err != nil {
			return err
		}
		off, err := experiments.Fig12(sc, snapshots, false)
		if err != nil {
			return err
		}
		on, err := experiments.Fig12(sc, snapshots, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.4f%% | %.4f%% | %.1f | %d/%d of %d |\n",
			sc.Name, 100*off.MeanLoss, 100*on.MeanLoss, on.MeanExtraCores,
			off.Refused(), on.Refused(), len(on.Windows))
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
