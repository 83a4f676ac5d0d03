package experiments

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// SoundnessConfig parameterizes the headline verification sweep.
type SoundnessConfig struct {
	// Seeds is the number of random workloads per configuration.
	Seeds int
	// Horizon is the simulated time per run.
	Horizon float64
}

// DefaultSoundness returns the default sweep.
func DefaultSoundness() SoundnessConfig {
	return SoundnessConfig{Seeds: 5, Horizon: 1500}
}

// Soundness runs the paper's headline guarantee as a reproducible
// verification sweep: across pipeline lengths, loads, resolutions,
// scheduling policies (with α honored), blocking (with β honored), and
// wait-queue admission, NO admitted task may miss its end-to-end
// deadline. The returned table reports, per configuration family, the
// number of tasks verified and the misses observed (which must be zero).
func Soundness(cfg SoundnessConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Verification sweep: zero deadline misses among admitted tasks (the paper's guarantee)",
		Header: []string{"configuration", "runs", "tasks completed", "misses"},
	}

	type family struct {
		name   string
		optsFn func(sim *des.Simulator, seed int64) pipeline.Options
		spec   workload.PipelineSpec
	}
	alphaRegion2 := core.NewRegion(2).WithAlpha(1.0 / 3)
	families := []family{
		{
			name: "DM, 2 stages, 120% load",
			optsFn: func(*des.Simulator, int64) pipeline.Options {
				return pipeline.Options{Stages: 2}
			},
			spec: paperSpec(2, 1.2, 50),
		},
		{
			name: "DM, 5 stages, 200% load, coarse tasks",
			optsFn: func(*des.Simulator, int64) pipeline.Options {
				return pipeline.Options{Stages: 5}
			},
			spec: paperSpec(5, 2.0, 8),
		},
		{
			name: "random priorities, α=1/3 honored",
			optsFn: func(_ *des.Simulator, seed int64) pipeline.Options {
				return pipeline.Options{
					Stages:      2,
					Policy:      task.Random{},
					Region:      &alphaRegion2,
					PriorityRNG: dist.NewRNG(seed + 1000),
				}
			},
			spec: paperSpec(2, 1.5, 20),
		},
		{
			name: "DM with 200ms-style admission hold",
			optsFn: func(*des.Simulator, int64) pipeline.Options {
				return pipeline.Options{Stages: 2, MaxWait: 5}
			},
			spec: paperSpec(2, 1.3, 30),
		},
	}

	for _, fam := range families {
		var completed, missed uint64
		for s := 0; s < cfg.Seeds; s++ {
			seed := int64(s + 1)
			sim := des.New()
			p := pipeline.New(sim, fam.optsFn(sim, seed))
			src := workload.NewSource(sim, fam.spec, seed, cfg.Horizon, func(tk *task.Task) { p.Offer(tk) })
			sim.At(0, func() { p.BeginMeasurement() })
			src.Start()
			sim.Run()
			m := p.Snapshot()
			completed += m.Completed
			missed += m.Missed
		}
		t.AddRow(fam.name, fmt.Sprintf("%d", cfg.Seeds),
			fmt.Sprintf("%d", completed), fmt.Sprintf("%d", missed))
	}
	return t
}
