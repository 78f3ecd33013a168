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

// Figs10And11 regenerates both figures from one pass over draws snapshots
// spread across the series, solving each snapshot's placement once.
//
// Fig 10 is the TCAM-reduction boxplot: sub-classes are derived from the
// placement and the tagged/untagged TCAM footprints counted. For
// multipath scenarios every class's ECMP alternates are charged to the
// untagged baseline, which is why the data-center reduction is largest
// (§IX-C). Fig 11 is the average CPU-core count of the placement against
// the ingress strawman's on the same snapshot.
func Figs10And11(sc *Scenario, draws int) (Fig10Row, Fig11Row, error) {
	if sc == nil {
		return Fig10Row{}, Fig11Row{}, errors.New("experiments: nil scenario")
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
	tcam := Fig10Row{Topology: sc.Name, Ratios: make([]float64, 0, draws)}
	cores := Fig11Row{Topology: sc.Name}
	engine := core.NewEngine(core.EngineOptions{})
	for d := range draws {
		prob, err := sc.Problem(sc.Series[d*step])
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		pl, err := engine.Solve(prob)
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		ratio, err := tcamRatio(sc, prob, pl)
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		tcam.Ratios = append(tcam.Ratios, ratio)
		ing, err := core.SolveIngress(prob)
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %s draw %d: %w", sc.Name, d, err)
		}
		ar, err := pl.TotalResources()
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %w", err)
		}
		ir, err := ing.TotalResources()
		if err != nil {
			return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %w", err)
		}
		cores.AppleCores += float64(ar.Cores)
		cores.IngressCores += float64(ir.Cores)
	}
	box, err := metrics.NewBoxplot(tcam.Ratios)
	if err != nil {
		return Fig10Row{}, Fig11Row{}, fmt.Errorf("experiments: %w", err)
	}
	tcam.Box = box
	cores.AppleCores /= float64(draws)
	cores.IngressCores /= float64(draws)
	return tcam, cores, nil
}

// tcamRatio is one snapshot's Fig 10 sample: the untagged over the
// tagged TCAM footprint of the placement's sub-classes.
func tcamRatio(sc *Scenario, prob *core.Problem, pl *core.Placement) (float64, error) {
	specs := make([]tagging.ClassSpec, 0, len(prob.Classes))
	for _, cl := range prob.Classes {
		subs, err := core.Subclasses(cl, pl.Dist[cl.ID])
		if err != nil {
			return 0, err
		}
		prefix, err := controller.ClassPrefix(cl.ID)
		if err != nil {
			return 0, err
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
		return 0, err
	}
	return usage.Ratio(), nil
}
