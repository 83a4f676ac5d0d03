package experiments

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
)

// Fig7Config parameterizes the approximate-admission experiment (§4.4):
// the controller knows only the mean computation times, not the actual
// per-task demands.
type Fig7Config struct {
	// Resolutions sweep the task resolution.
	Resolutions []float64
	// Loads are the two input-load curves of the figure.
	Loads []float64
	Scale Scale
	Seed  int64
}

// DefaultFig7 returns the paper's setup: a balanced two-stage pipeline,
// two load curves.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		Resolutions: []float64{2, 5, 10, 20, 50, 100},
		Loads:       []float64{1.2, 2.0},
		Scale:       Full,
		Seed:        4,
	}
}

// Fig7Result holds the miss ratio of admitted tasks versus resolution,
// one curve per load.
type Fig7Result struct {
	Config Fig7Config
	// MissRatio[loadIdx][resIdx].
	MissRatio [][]float64
	Points    [][]Point
}

// Fig7 runs the §4.4 experiment. The paper's observation to reproduce:
// with mean-based admission, no tasks miss deadlines at high resolution;
// only at low resolution does a very small fraction miss — exact
// computation times are not needed in practice when tasks are small.
func Fig7(cfg Fig7Config) Fig7Result {
	res := Fig7Result{Config: cfg}
	for li, load := range cfg.Loads {
		res.MissRatio = append(res.MissRatio, nil)
		res.Points = append(res.Points, nil)
		for _, r := range cfg.Resolutions {
			spec := paperSpec(2, load, r)
			means := spec.StageMeans()
			pt := RunPipelinePoint(spec, withOpts(pipeline.Options{
				Stages:    2,
				Estimator: core.MeanDemand(means),
			}), cfg.Scale, cfg.Seed)
			res.MissRatio[li] = append(res.MissRatio[li], pt.MissRatio.Mean)
			res.Points[li] = append(res.Points[li], pt)
		}
	}
	return res
}

// Table renders one row per resolution, one miss-ratio column per load.
func (r Fig7Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Figure 7: miss ratio of admitted tasks vs task resolution under approximate (mean-based) admission",
		Header: []string{"resolution"},
	}
	for _, load := range r.Config.Loads {
		t.Header = append(t.Header, fmt.Sprintf("miss-ratio(load=%.0f%%)", load*100))
	}
	for ri, res := range r.Config.Resolutions {
		row := []string{fmt.Sprintf("%g", res)}
		for li := range r.Config.Loads {
			row = append(row, fmt.Sprintf("%.5f", r.MissRatio[li][ri]))
		}
		t.AddRow(row...)
	}
	return t
}
