package experiments

import (
	"fmt"

	"feasregion/internal/stats"
)

// Fig5Config parameterizes the task-resolution experiment (paper §4.2).
type Fig5Config struct {
	// Resolutions sweep the ratio of mean deadline to mean total
	// computation; the paper moves from a "liquid" regime (high) down to
	// coarse tasks (low).
	Resolutions []float64
	// Loads are the per-stage total load levels of the three curves.
	Loads []float64
	Scale Scale
	Seed  int64
}

// DefaultFig5 returns the paper's setup: a two-stage pipeline with three
// load curves.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Resolutions: []float64{2, 5, 10, 20, 50, 100, 200, 500},
		Loads:       []float64{0.8, 1.2, 2.0},
		Scale:       Full,
		Seed:        2,
	}
}

// Fig5Result holds utilization versus resolution, one curve per load.
type Fig5Result struct {
	Config Fig5Config
	// Util[loadIdx][resIdx] is the mean per-stage utilization.
	Util   [][]float64
	Points [][]Point
}

// Fig5 runs the §4.2 experiment on a two-stage pipeline. The paper's
// observation to reproduce: the higher the resolution, the higher the
// fraction of accepted tasks (and thus real utilization), because coarse
// tasks make unschedulable workloads easier to generate.
func Fig5(cfg Fig5Config) Fig5Result {
	res := Fig5Result{Config: cfg}
	for li, load := range cfg.Loads {
		res.Util = append(res.Util, nil)
		res.Points = append(res.Points, nil)
		for _, r := range cfg.Resolutions {
			spec := paperSpec(2, load, r)
			pt := RunPipelinePoint(spec, defaultOpts(2), cfg.Scale, cfg.Seed)
			res.Util[li] = append(res.Util[li], pt.MeanUtil.Mean)
			res.Points[li] = append(res.Points[li], pt)
		}
	}
	return res
}

// Table renders one row per resolution, one column per load curve.
func (r Fig5Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Figure 5: average per-stage utilization vs task resolution (2-stage pipeline)",
		Header: []string{"resolution"},
	}
	for _, load := range r.Config.Loads {
		t.Header = append(t.Header, fmt.Sprintf("util(load=%.0f%%)", load*100))
	}
	for ri, res := range r.Config.Resolutions {
		row := []string{fmt.Sprintf("%g", res)}
		for li := range r.Config.Loads {
			pt := r.Points[li][ri]
			cell := fmt.Sprintf("%.3f", pt.MeanUtil.Mean)
			if pt.MeanUtil.N > 1 {
				cell += fmt.Sprintf("±%.3f", pt.MeanUtil.Half95)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}
