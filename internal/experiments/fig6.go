package experiments

import (
	"fmt"

	"feasregion/internal/stats"
	"feasregion/internal/workload"
)

// Fig6Config parameterizes the load-imbalance experiment (paper §4.3).
type Fig6Config struct {
	// Ratios sweep the mean-demand ratio between the two stages; 1 is
	// balanced (the midpoint of the paper's figure).
	Ratios []float64
	// Load is the offered load on the bottleneck stage.
	Load float64
	// Resolution is the task resolution.
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultFig6 returns the experiment's parameters: a two-stage pipeline
// with the imbalance ratio swept symmetrically around 1.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Ratios:     []float64{0.125, 0.25, 0.5, 1, 2, 4, 8},
		Load:       1.2,
		Resolution: 100,
		Scale:      Full,
		Seed:       3,
	}
}

// Fig6Result holds bottleneck utilization versus imbalance ratio.
type Fig6Result struct {
	Config     Fig6Config
	Bottleneck []float64
	Points     []Point
}

// Fig6 runs the §4.3 experiment. The paper's observation to reproduce:
// the bottleneck stage's utilization is lowest at balance and grows as
// imbalance increases in either direction — the admission controller
// opportunistically exploits the underutilized stage, approaching
// single-resource behavior.
func Fig6(cfg Fig6Config) Fig6Result {
	res := Fig6Result{Config: cfg}
	for _, ratio := range cfg.Ratios {
		spec := paperSpec(2, cfg.Load, cfg.Resolution)
		spec.StageScale = workload.ImbalanceScales(ratio)
		pt := RunPipelinePoint(spec, defaultOpts(2), cfg.Scale, cfg.Seed)
		res.Bottleneck = append(res.Bottleneck, pt.BottleneckUtil.Mean)
		res.Points = append(res.Points, pt)
	}
	return res
}

// Table renders one row per imbalance ratio.
func (r Fig6Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Figure 6: bottleneck-stage utilization vs load imbalance (2-stage pipeline)",
		Header: []string{"mean-demand ratio", "bottleneck util"},
	}
	for i, ratio := range r.Config.Ratios {
		t.AddRow(fmt.Sprintf("%g", ratio), fmt.Sprintf("%.3f", r.Bottleneck[i]))
	}
	return t
}
