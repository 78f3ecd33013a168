// Command appletrace runs a traced churn replay and exports the
// observability artifacts: the virtual-time event journal as JSONL and
// the unified metrics registry snapshot as JSON. It then reconstructs
// and prints one class's audit trail from the journal it just wrote —
// proving the artifact, not just the in-memory recorder, carries the
// full story (admission, LP placement, tags, installed path, failover
// transitions).
//
// Usage:
//
//	appletrace                                  # default replay, artifacts in .
//	appletrace -journal - -metrics ""           # journal to stdout, no metrics file
//	appletrace -class 2 -waves 5 -seed 11       # audit class 2 of a longer replay
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/apple-nfv/apple/internal/experiments"
	"github.com/apple-nfv/apple/internal/profiling"
	"github.com/apple-nfv/apple/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		journal  = flag.String("journal", "churn_trace.jsonl", "journal JSONL path, - for stdout, empty to skip")
		metrics  = flag.String("metrics", "churn_metrics.json", "metrics snapshot JSON path, - for stdout, empty to skip")
		capacity = flag.Int("capacity", 1<<16, "journal ring-buffer capacity (events)")
		seed     = flag.Int64("seed", 7, "deterministic replay seed")
		classes  = flag.Int("classes", 1, "traffic classes in the replay")
		waves    = flag.Int("waves", 0, "surge/recovery waves (0 = default)")
		class    = flag.Int64("class", 0, "class whose audit trail is printed")
		quiet    = flag.Bool("quiet", false, "skip the audit-trail printout")
		profile  = flag.String("profile", "", "serve pprof and runtime/metrics on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()
	if *profile != "" {
		srv, err := profiling.Start(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "appletrace: profiling on http://%s/debug/pprof/\n", srv.Addr())
	}

	res, err := experiments.ChurnReplay(experiments.ChurnConfig{
		Seed:          *seed,
		Classes:       *classes,
		Waves:         *waves,
		Probe:         true,
		TraceCapacity: *capacity,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
		return 1
	}
	if res.InvariantErr != nil {
		fmt.Fprintf(os.Stderr, "appletrace: invariant violated: %v\n", res.InvariantErr)
		return 1
	}
	if res.EnforceErr != nil {
		fmt.Fprintf(os.Stderr, "appletrace: enforcement check failed: %v\n", res.EnforceErr)
		return 1
	}

	if *journal != "" {
		if err := writeTo(*journal, func(w io.Writer) error {
			return trace.WriteJSONL(w, res.Journal)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "appletrace: %d events -> %s\n", len(res.Journal), *journal)
	}
	if *metrics != "" {
		if err := writeTo(*metrics, res.Metrics.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "appletrace: metrics snapshot -> %s\n", *metrics)
	}

	if !*quiet {
		// Audit from the written artifact when there is one, else from
		// the in-memory journal.
		events := res.Journal
		if *journal != "" && *journal != "-" {
			f, err := os.Open(*journal)
			if err != nil {
				fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
				return 1
			}
			events, err = trace.ReadJSONL(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
				return 1
			}
		}
		audit, err := trace.ReconstructFlow(events, *class)
		if err != nil {
			fmt.Fprintf(os.Stderr, "appletrace: %v\n", err)
			return 1
		}
		fmt.Print(audit.String())
	}
	return 0
}

// writeTo runs emit against path, where "-" means stdout.
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
