package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// exactCounts are the counts that must repeat bit for bit when a workload
// runs twice on the same inputs. A count that does not is a finding for a
// later bug-fix issue (README.md lists the known ones), not something the
// benchmark patches.
var exactCounts = []string{"instances", "tcam_rules", "controller.rules_touched", "lp.pivots"}

type repeatCheck struct {
	First  float64 `json:"first"`
	Second float64 `json:"second"`
	Exact  bool    `json:"exact"`
}

// runSelfcheck runs every workload twice at reduced scale with fixed work
// and one seed, and prints for each exact count whether it repeated.
func runSelfcheck(cfg config, stdout, stderr io.Writer) int {
	cfg.scale, cfg.trace = min(cfg.scale, 0.1), true
	units := map[string]int{"paper_lifecycle": 1, "diurnal_reopt": 1, "fattree_admit": 200, "fattree_walk": 8, "fattree_mixed": 200}
	out := make(map[string]map[string]repeatCheck)
	for _, w := range workloads {
		cfg.workload, cfg.units = w.Name, units[w.Name]
		var runs [2]*report
		for i := range runs {
			rep, err := run(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "applebench: selfcheck: %v\n", err)
				return 1
			}
			if rep.failed > 0 {
				fmt.Fprintf(stderr, "applebench: selfcheck: %s: %d of %d checks failed\n", w.Name, rep.failed, rep.attempted)
				return 1
			}
			runs[i] = rep
		}
		out[w.Name] = make(map[string]repeatCheck)
		for _, name := range exactCounts {
			a, ok := runs[0].endToEnd[name]
			b := runs[1].endToEnd[name]
			if !ok {
				a, b = runs[0].perLayer[name], runs[1].perLayer[name]
			}
			out[w.Name][name] = repeatCheck{a, b, a == b}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "applebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
