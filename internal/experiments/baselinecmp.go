package experiments

import (
	"fmt"

	"feasregion/internal/baseline"
	"feasregion/internal/des"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
)

// BaselineCompareConfig parameterizes the admission-policy comparison.
type BaselineCompareConfig struct {
	Loads      []float64
	Stages     int
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultBaselineCompare returns the default sweep.
func DefaultBaselineCompare() BaselineCompareConfig {
	return BaselineCompareConfig{
		Loads:      []float64{0.8, 1.0, 1.5, 2.0},
		Stages:     2,
		Resolution: 50,
		Scale:      Full,
		Seed:       9,
	}
}

// BaselineCompare contrasts the paper's end-to-end feasible region with
// (a) the traditional intermediate-deadline analysis (§1's "tools in
// periodic task literature") and (b) no admission control at all. The
// expected shape: the region admits more than the split-deadline
// baseline at zero misses, while no-admission buys utilization at the
// cost of deadline misses.
func BaselineCompare(cfg BaselineCompareConfig) *stats.Table {
	t := &stats.Table{
		Title: "Baseline comparison: admission policies (stage utilization / miss ratio)",
		Header: []string{
			"load",
			"feasible region", "miss",
			"split deadlines", "miss",
			"no admission", "miss",
		},
	}
	for _, load := range cfg.Loads {
		spec := paperSpec(cfg.Stages, load, cfg.Resolution)
		region := RunPipelinePoint(spec, defaultOpts(cfg.Stages), cfg.Scale, cfg.Seed)
		split := RunPipelinePoint(spec, func(sim *des.Simulator, _ int, _ int64) Replication {
			return Replication{Opts: pipeline.Options{
				Stages:   cfg.Stages,
				Admitter: baseline.NewSplitDeadlineController(sim, cfg.Stages),
			}}
		}, cfg.Scale, cfg.Seed)
		open := RunPipelinePoint(spec, withOpts(pipeline.Options{Stages: cfg.Stages, NoAdmission: true}), cfg.Scale, cfg.Seed)
		t.AddRow(
			fmt.Sprintf("%.0f%%", load*100),
			fmt.Sprintf("%.3f", region.MeanUtil.Mean), fmt.Sprintf("%.4f", region.MissRatio.Mean),
			fmt.Sprintf("%.3f", split.MeanUtil.Mean), fmt.Sprintf("%.4f", split.MissRatio.Mean),
			fmt.Sprintf("%.3f", open.MeanUtil.Mean), fmt.Sprintf("%.4f", open.MissRatio.Mean),
		)
	}
	return t
}
