package experiments

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/apple-nfv/apple/internal/controller"
	"github.com/apple-nfv/apple/internal/core"
	"github.com/apple-nfv/apple/internal/metrics"
	"github.com/apple-nfv/apple/internal/tagging"
)

// TableVRow is one row of the computation-time table.
type TableVRow struct {
	Topology string
	Nodes    int
	Links    int
	Classes  int
	// SolveTime is the mean optimization wall time over Repeats runs.
	SolveTime time.Duration
	Objective int
}

// TableV regenerates the computation-time table: the Optimization Engine
// runs on the series-mean matrix of every scenario, repeated and
// averaged. Topologies are timed one at a time, so no row's solve time
// is measured while another topology's solve competes for the cores.
func TableV(scenarios []*Scenario, repeats int) ([]TableVRow, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("experiments: no scenarios")
	}
	if repeats <= 0 {
		repeats = 3
	}
	out := make([]TableVRow, 0, len(scenarios))
	for _, sc := range scenarios {
		prob, err := sc.MeanProblem()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", sc.Name, err)
		}
		row := TableVRow{
			Topology: sc.Name,
			Nodes:    sc.Graph.NumNodes(),
			Links:    sc.Graph.NumLinks(),
			Classes:  len(prob.Classes),
		}
		var total time.Duration
		for r := 0; r < repeats; r++ {
			pl, err := core.NewEngine(core.EngineOptions{}).Solve(prob)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", sc.Name, err)
			}
			total += pl.SolveTime
			row.Objective = pl.Objective
		}
		row.SolveTime = total / time.Duration(repeats)
		out = append(out, row)
	}
	return out, nil
}

// Fig10Row is one topology's TCAM-reduction distribution.
type Fig10Row struct {
	Topology string
	Ratios   []float64
	Box      metrics.Boxplot
}

// Fig10 regenerates the TCAM-reduction boxplot: for draws snapshots
// spread across the series, the engine solves the placement, sub-classes
// are derived, and the tagged/untagged TCAM footprints are counted. For
// multipath scenarios every class's ECMP alternates are charged to the
// untagged baseline, which is why the data-center reduction is largest
// (§IX-C).
func Fig10(sc *Scenario, draws int) (Fig10Row, error) {
	if sc == nil {
		return Fig10Row{}, errors.New("experiments: nil scenario")
	}
	if draws <= 0 {
		draws = 8
	}
	if draws > len(sc.Series) {
		draws = len(sc.Series)
	}
	row := Fig10Row{Topology: sc.Name}
	step := len(sc.Series) / draws
	if step == 0 {
		step = 1
	}
	engine := core.NewEngine(core.EngineOptions{})
	row.Ratios = make([]float64, 0, draws)
	for d := range draws {
		prob, err := sc.Problem(sc.Series[d*step])
		if err != nil {
			return Fig10Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		pl, err := engine.Solve(prob)
		if err != nil {
			return Fig10Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		specs := make([]tagging.ClassSpec, 0, len(prob.Classes))
		for _, cl := range prob.Classes {
			subs, err := core.Subclasses(cl, pl.Dist[cl.ID])
			if err != nil {
				return Fig10Row{}, fmt.Errorf("experiments: %w", err)
			}
			prefix, err := controller.ClassPrefix(cl.ID)
			if err != nil {
				return Fig10Row{}, fmt.Errorf("experiments: %w", err)
			}
			spec := tagging.ClassSpec{
				Class:      cl,
				Prefix:     prefix,
				Subclasses: subs,
			}
			if sc.Multipath {
				alts, err := sc.Graph.AllShortestPaths(cl.Path[0], cl.Path[len(cl.Path)-1], 8)
				if err == nil && len(alts) > 1 {
					for _, alt := range alts {
						if !slices.Equal(alt, cl.Path) {
							spec.AltPaths = append(spec.AltPaths, alt)
						}
					}
				}
			}
			specs = append(specs, spec)
		}
		usage, err := tagging.CountTCAM(specs, 8)
		if err != nil {
			return Fig10Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		row.Ratios = append(row.Ratios, usage.Ratio())
	}
	box, err := metrics.NewBoxplot(row.Ratios)
	if err != nil {
		return Fig10Row{}, fmt.Errorf("experiments: %w", err)
	}
	row.Box = box
	return row, nil
}

// Fig11Row compares hardware usage between APPLE's engine and the ingress
// strawman for one topology.
type Fig11Row struct {
	Topology     string
	AppleCores   float64
	IngressCores float64
}

// Reduction returns the ingress/APPLE core ratio (≈4× Internet2, ≈2.5×
// GEANT, smaller for UNIV1 in the paper).
func (r Fig11Row) Reduction() float64 {
	if r.AppleCores == 0 {
		return 0
	}
	return r.IngressCores / r.AppleCores
}

// Fig11 regenerates the average-CPU-core comparison over draws snapshots.
func Fig11(sc *Scenario, draws int) (Fig11Row, error) {
	if sc == nil {
		return Fig11Row{}, errors.New("experiments: nil scenario")
	}
	if draws <= 0 {
		draws = 8
	}
	if draws > len(sc.Series) {
		draws = len(sc.Series)
	}
	step := len(sc.Series) / draws
	if step == 0 {
		step = 1
	}
	row := Fig11Row{Topology: sc.Name}
	engine := core.NewEngine(core.EngineOptions{})
	for d := range draws {
		prob, err := sc.Problem(sc.Series[d*step])
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		apple, err := engine.Solve(prob)
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		ing, err := core.SolveIngress(prob)
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		ar, err := apple.TotalResources()
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: %w", err)
		}
		ir, err := ing.TotalResources()
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: %w", err)
		}
		row.AppleCores += float64(ar.Cores)
		row.IngressCores += float64(ir.Cores)
	}
	row.AppleCores /= float64(draws)
	row.IngressCores /= float64(draws)
	return row, nil
}
