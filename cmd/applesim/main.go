// Command applesim runs the trace-driven simulation campaign of §IX and
// regenerates Figs 10–12: TCAM reduction from the tagging scheme,
// hardware usage versus the ingress strawman, and packet loss under
// traffic dynamics with and without fast failover.
//
// Usage:
//
//	applesim -fig10 -fig11 -fig12        # everything
//	applesim -fig12 -snapshots 120       # a shorter replay
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig10     = flag.Bool("fig10", false, "TCAM usage reduction boxplots")
		fig11     = flag.Bool("fig11", false, "average CPU cores: APPLE vs ingress")
		fig12     = flag.Bool("fig12", false, "loss over time with/without fast failover")
		draws     = flag.Int("draws", 8, "traffic matrices sampled for Figs 10-11")
		snapshots = flag.Int("snapshots", 120, "snapshots replayed for Fig 12")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		scale     = flag.Float64("scale", 1, "traffic volume multiplier")
		plot      = flag.Bool("plot", false, "ASCII-plot the Fig 12 series")
		profile   = flag.String("profile", "", "serve pprof and runtime/metrics on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()
	if *profile != "" {
		srv, err := profiling.Start(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "applesim: profiling on http://%s/debug/pprof/\n", srv.Addr())
	}
	if !*fig10 && !*fig11 && !*fig12 {
		*fig10, *fig11, *fig12 = true, true, true
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Snapshots: maxInt(*snapshots, 48)}
	// The three replay topologies of §IX (AS-3679 appears only in Table V).
	builders := []func(experiments.Options) (*experiments.Scenario, error){
		experiments.Internet2, experiments.GEANT, experiments.UNIV1,
	}

	if *fig10 {
		fmt.Println("Fig 10 — TCAM usage reduction ratio (tagging vs no tagging)")
		fmt.Printf("%-10s %s\n", "Topology", "boxplot of reduction ratios")
		for _, b := range builders {
			sc, err := b(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			row, err := experiments.Fig10(sc, *draws)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			fmt.Printf("%-10s %s\n", row.Topology, row.Box)
		}
		fmt.Println()
	}

	if *fig11 {
		fmt.Println("Fig 11 — average CPU core usage")
		fmt.Printf("%-10s %12s %12s %10s\n", "Topology", "APPLE", "ingress", "reduction")
		for _, b := range builders {
			sc, err := b(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			row, err := experiments.Fig11(sc, *draws)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			fmt.Printf("%-10s %12.1f %12.1f %9.2fx\n",
				row.Topology, row.AppleCores, row.IngressCores, row.Reduction())
		}
		fmt.Println()
	}

	if *fig12 {
		fmt.Println("Fig 12 — packet loss over time, with vs without fast failover")
		fmt.Printf("%-10s %16s %16s %12s %10s %14s\n", "Topology", "mean loss (off)", "mean loss (on)", "avg extra", "peak extra", "refused off/on")
		for _, b := range builders {
			sc, err := b(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			off, err := experiments.Fig12(sc, *snapshots, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			on, err := experiments.Fig12(sc, *snapshots, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "applesim: %v\n", err)
				return 1
			}
			fmt.Printf("%-10s %15.4f%% %15.4f%% %12.1f %10d %14s\n",
				sc.Name, 100*off.MeanLoss, 100*on.MeanLoss, on.MeanExtraCores, on.PeakExtraCores,
				fmt.Sprintf("%d/%d of %d", off.Refused(), on.Refused(), len(on.Windows)))
			if *plot {
				fmt.Println(off.Loss.ASCIIPlot(72, 8))
				fmt.Println(on.Loss.ASCIIPlot(72, 8))
			}
		}
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
