package experiments

import (
	"fmt"

	"feasregion/internal/stats"
)

// Fig4Config parameterizes the pipeline-length experiment (paper §4.1).
type Fig4Config struct {
	// Loads are the input loads as fractions of stage capacity (the
	// paper sweeps 60%–200%).
	Loads []float64
	// Lengths are the pipeline lengths compared (the paper plots 1, 2,
	// 3, and 5 stages).
	Lengths []int
	// Resolution is the task resolution (≈100 in the paper: requests
	// much smaller than response-time requirements).
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultFig4 returns the paper's parameters.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Loads:      []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
		Lengths:    []int{1, 2, 3, 5},
		Resolution: 100,
		Scale:      Full,
		Seed:       1,
	}
}

// Fig4Result holds the family of curves: average real stage utilization
// after admission control versus input load, one curve per pipeline
// length.
type Fig4Result struct {
	Config Fig4Config
	// Util[length][i] is the mean stage utilization at Loads[i].
	Util map[int][]float64
	// Points keeps the full per-point aggregates.
	Points map[int][]Point
}

// Fig4 runs the §4.1 experiment: the effect of pipeline length on the
// admission controller. The paper's observations to reproduce: ≥ ~80%
// real utilization at 100% input load, and near-identical curves for 2,
// 3, and 5 stages (no added pessimism from pipeline depth).
func Fig4(cfg Fig4Config) Fig4Result {
	res := Fig4Result{
		Config: cfg,
		Util:   map[int][]float64{},
		Points: map[int][]Point{},
	}
	for _, n := range cfg.Lengths {
		for _, load := range cfg.Loads {
			spec := paperSpec(n, load, cfg.Resolution)
			pt := RunPipelinePoint(spec, defaultOpts(n), cfg.Scale, cfg.Seed)
			res.Util[n] = append(res.Util[n], pt.MeanUtil.Mean)
			res.Points[n] = append(res.Points[n], pt)
		}
	}
	return res
}

// Table renders the curves in the paper's layout: one row per input
// load, one utilization column per pipeline length.
func (r Fig4Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Figure 4: average real stage utilization vs input load, by pipeline length",
		Header: []string{"load"},
	}
	for _, n := range r.Config.Lengths {
		t.Header = append(t.Header, fmt.Sprintf("util(N=%d)", n))
	}
	for i, load := range r.Config.Loads {
		row := []string{fmt.Sprintf("%.0f%%", load*100)}
		for _, n := range r.Config.Lengths {
			pt := r.Points[n][i]
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
