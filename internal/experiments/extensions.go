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

// JitteredPeriodicConfig parameterizes the §1-motivation experiment:
// periodic task streams whose release jitter is as large as the period,
// so the minimum interarrival time approaches zero and sporadic-model
// analysis breaks down — but the aperiodic region still gives guarantees.
type JitteredPeriodicConfig struct {
	// Streams is the number of periodic streams.
	Streams int
	// JitterFraction scales each stream's jitter relative to its period
	// (1.0 = jitter as large as the period).
	JitterFraction float64
	Stages         int
	Horizon        float64
	Warmup         float64
	Seed           int64
}

// DefaultJitteredPeriodic returns the default configuration.
func DefaultJitteredPeriodic() JitteredPeriodicConfig {
	return JitteredPeriodicConfig{
		Streams:        60,
		JitterFraction: 1.0,
		Stages:         2,
		Horizon:        4000,
		Warmup:         400,
		Seed:           10,
	}
}

// JitteredPeriodic runs heavily jittered periodic streams through the
// aperiodic admission controller and, for contrast, through the open
// (no-admission) pipeline. The paper's §1 claim to demonstrate: "a
// schedulability theory based on an aperiodic model may allow streams of
// periodic tasks to be guaranteed in the presence of large jitter."
func JitteredPeriodic(cfg JitteredPeriodicConfig) *stats.Table {
	run := func(admission bool) pipeline.Metrics {
		sim := des.New()
		p := pipeline.New(sim, pipeline.Options{Stages: cfg.Stages, NoAdmission: !admission})
		rng := dist.NewRNG(cfg.Seed)
		var id task.ID
		for s := 0; s < cfg.Streams; s++ {
			period := 20 + rng.Float64()*180
			demands := make([]float64, cfg.Stages)
			for j := range demands {
				// Aggregate offered load ≈ streams · E[demand]/E[period]
				// per stage; sized to ≈ 85% with 60 streams.
				demands[j] = (0.5 + rng.Float64()) * period / float64(cfg.Streams) * 1.4
			}
			stream := workload.PeriodicStream{
				Name:     fmt.Sprintf("stream-%d", s),
				Period:   period,
				Phase:    rng.Float64() * period,
				Jitter:   cfg.JitterFraction * period,
				Deadline: period,
				Demands:  demands,
			}
			stream.Schedule(sim, rng, cfg.Horizon, &id, func(t *task.Task) { p.Offer(t) })
		}
		return measure(sim, p, cfg.Warmup, cfg.Horizon)
	}

	withAC := run(true)
	without := run(false)
	t := &stats.Table{
		Title: fmt.Sprintf("Extension: %d periodic streams with release jitter = %.0f%% of period (aperiodic admission vs none)",
			cfg.Streams, cfg.JitterFraction*100),
		Header: []string{"configuration", "accepted", "stage util", "miss ratio"},
	}
	t.AddRow("aperiodic region admission",
		fmt.Sprintf("%.1f%%", withAC.AcceptRatio*100),
		fmt.Sprintf("%.3f", withAC.MeanUtilization),
		fmt.Sprintf("%.5f", withAC.MissRatio))
	t.AddRow("no admission",
		"100.0%",
		fmt.Sprintf("%.3f", without.MeanUtilization),
		fmt.Sprintf("%.5f", without.MissRatio))
	return t
}

// OverrunConfig parameterizes the execution-overrun sensitivity study:
// every task executes `Factor` times longer than the demand the
// admission controller was told about.
type OverrunConfig struct {
	Factors    []float64
	Load       float64
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultOverrun returns the default sweep.
func DefaultOverrun() OverrunConfig {
	return OverrunConfig{
		Factors:    []float64{1.0, 1.1, 1.25, 1.5, 2.0},
		Load:       1.5,
		Resolution: 50,
		Scale:      Full,
		Seed:       11,
	}
}

// underestimateBy returns an estimator reporting actual/factor — i.e.,
// tasks overrun their declared demands by factor.
func underestimateBy(factor float64) core.Estimator {
	return func(t *task.Task, stage int) float64 {
		return t.StageDemand(stage) / factor
	}
}

// Overrun quantifies how the guarantee degrades when tasks execute
// longer than declared (a practical admission-control concern the
// paper's exact/approximate dichotomy brackets): miss ratio and
// utilization versus the overrun factor.
func Overrun(cfg OverrunConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: sensitivity to execution-time overruns (declared = actual / factor)",
		Header: []string{"overrun factor", "stage util", "miss ratio"},
	}
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	for _, factor := range cfg.Factors {
		pt := RunPipelinePoint(spec, withOpts(pipeline.Options{Stages: 2, Estimator: underestimateBy(factor)}), cfg.Scale, cfg.Seed)
		t.AddRow(fmt.Sprintf("%.2f", factor),
			fmt.Sprintf("%.3f", pt.MeanUtil.Mean),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean))
	}
	return t
}

// HeavyTailConfig parameterizes the heavy-tailed variant of Fig. 7.
type HeavyTailConfig struct {
	Resolutions []float64
	Load        float64
	ParetoAlpha float64
	Scale       Scale
	Seed        int64
}

// DefaultHeavyTail returns the default configuration.
func DefaultHeavyTail() HeavyTailConfig {
	return HeavyTailConfig{
		Resolutions: []float64{10, 50, 100, 200},
		Load:        1.5,
		ParetoAlpha: 1.5,
		Scale:       Full,
		Seed:        12,
	}
}

// HeavyTailApproximate stresses §4.4's mean-based admission with
// bounded-Pareto demands: the mean is preserved but occasional tasks are
// two orders of magnitude larger, so approximate admission needs higher
// resolution before misses vanish than with exponential demands.
func HeavyTailApproximate(cfg HeavyTailConfig) *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Extension: approximate admission under bounded-Pareto demands (alpha=%.2g) vs exponential", cfg.ParetoAlpha),
		Header: []string{"resolution", "miss ratio (exp)", "miss ratio (pareto)"},
	}
	for _, res := range cfg.Resolutions {
		spec := paperSpec(2, cfg.Load, res)
		opts := pipeline.Options{Stages: 2, Estimator: core.MeanDemand(spec.StageMeans())}
		exp := RunPipelinePoint(spec, withOpts(opts), cfg.Scale, cfg.Seed)
		pareto := RunPipelinePoint(spec, func(sim *des.Simulator, _ int, seed int64) Replication {
			return Replication{Opts: opts, Source: func(p *pipeline.Pipeline) *workload.Source {
				return workload.HeavyTailedSource(sim, spec, cfg.ParetoAlpha, seed, cfg.Scale.Horizon, func(tk *task.Task) { p.Offer(tk) })
			}}
		}, cfg.Scale, cfg.Seed)
		t.AddRow(fmt.Sprintf("%g", res),
			fmt.Sprintf("%.5f", exp.MissRatio.Mean),
			fmt.Sprintf("%.5f", pareto.MissRatio.Mean))
	}
	return t
}

// BurstinessConfig parameterizes the bursty-arrival extension.
type BurstinessConfig struct {
	// Burstiness levels; 1 means the smooth Poisson baseline.
	Levels     []float64
	Load       float64
	Resolution float64
	MeanOn     float64
	Scale      Scale
	Seed       int64
}

// DefaultBurstiness returns the default sweep.
func DefaultBurstiness() BurstinessConfig {
	return BurstinessConfig{
		Levels:     []float64{1, 2, 4, 8},
		Load:       1.0,
		Resolution: 50,
		MeanOn:     25,
		Scale:      Full,
		Seed:       14,
	}
}

// Burstiness subjects the admission controller to on-off modulated
// Poisson arrivals at equal long-run load: the guarantee (zero misses
// among admitted tasks) must survive arbitrarily bursty inputs; the cost
// shows up as lower acceptance during ON storms.
func Burstiness(cfg BurstinessConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: admission control under on-off bursty arrivals (equal long-run load)",
		Header: []string{"burstiness", "accepted", "stage util", "miss ratio"},
	}
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	for _, level := range cfg.Levels {
		build := defaultOpts(2)
		if level > 1 {
			bursty := workload.BurstySpec{Pipeline: spec, Burstiness: level, MeanOn: cfg.MeanOn}
			build = func(sim *des.Simulator, _ int, seed int64) Replication {
				return Replication{Opts: pipeline.Options{Stages: 2}, Source: func(p *pipeline.Pipeline) *workload.Source {
					return workload.NewBurstySource(sim, bursty, seed, cfg.Scale.Horizon, func(tk *task.Task) { p.Offer(tk) })
				}}
			}
		}
		pt := RunPipelinePoint(spec, build, cfg.Scale, cfg.Seed)
		t.AddRow(fmt.Sprintf("%gx", level),
			fmt.Sprintf("%.1f%%", pt.AcceptRatio.Mean*100),
			fmt.Sprintf("%.3f", pt.MeanUtil.Mean),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean))
	}
	return t
}

// PolicyCompareConfig parameterizes the scheduler comparison.
type PolicyCompareConfig struct {
	Load       float64
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultPolicyCompare returns the default configuration: below
// saturation so every policy completes all work and differences show up
// purely as misses.
func DefaultPolicyCompare() PolicyCompareConfig {
	return PolicyCompareConfig{Load: 0.9, Resolution: 10, Scale: Full, Seed: 13}
}

// PolicyCompare contrasts schedulers on the open (no-admission) pipeline:
// deadline-monotonic (the paper's optimal fixed-priority choice), EDF,
// FIFO, and random priorities, by miss ratio at equal load.
func PolicyCompare(cfg PolicyCompareConfig) *stats.Table {
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	t := &stats.Table{
		Title:  "Extension: scheduling policies on the open pipeline (no admission control)",
		Header: []string{"policy", "miss ratio", "mean response"},
	}
	policies := []task.Policy{task.DeadlineMonotonic{}, task.EDF{}, task.FIFO{}, task.Random{}}
	for i, pol := range policies {
		pt := RunPipelinePoint(spec, func(_ *des.Simulator, r int, _ int64) Replication {
			return Replication{Opts: pipeline.Options{
				Stages:      2,
				NoAdmission: true,
				Policy:      pol,
				PriorityRNG: dist.NewRNG(cfg.Seed + int64(i*100+r)),
			}}
		}, cfg.Scale, cfg.Seed)
		t.AddRow(pol.Name(),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean),
			fmt.Sprintf("%.3f", pt.MeanResponse.Mean))
	}
	return t
}

// OverheadConfig parameterizes the preemption-overhead sensitivity study.
type OverheadConfig struct {
	// Overheads are per-preemption costs in units of the mean stage
	// demand (which is 1).
	Overheads  []float64
	Load       float64
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultOverhead returns the default sweep.
func DefaultOverhead() OverheadConfig {
	return OverheadConfig{
		Overheads:  []float64{0, 0.05, 0.2, 0.5, 1.0},
		Load:       1.5,
		Resolution: 20,
		Scale:      Full,
		Seed:       18,
	}
}

// PreemptionOverheadSensitivity quantifies how the guarantee erodes when
// preemptions cost real time (the analysis assumes zero overhead):
// utilization and miss ratio versus the per-preemption cost.
func PreemptionOverheadSensitivity(cfg OverheadConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: sensitivity to preemption overhead (charged to the preempted job)",
		Header: []string{"overhead per preemption", "stage util", "miss ratio"},
	}
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	for _, eps := range cfg.Overheads {
		pt := RunPipelinePoint(spec, withOpts(pipeline.Options{Stages: 2, PreemptionOverhead: eps}), cfg.Scale, cfg.Seed)
		t.AddRow(fmt.Sprintf("%.3f", eps),
			fmt.Sprintf("%.3f", pt.MeanUtil.Mean),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean))
	}
	return t
}

// MultiServerConfig parameterizes the partitioned-multiprocessor scaling
// study.
type MultiServerConfig struct {
	// Servers are the per-stage CPU counts compared.
	Servers []int
	// LoadPerServer is the offered load per CPU (so total offered load
	// scales with the CPU count).
	LoadPerServer float64
	Resolution    float64
	Scale         Scale
	Seed          int64
}

// DefaultMultiServer returns the default sweep.
func DefaultMultiServer() MultiServerConfig {
	return MultiServerConfig{
		Servers:       []int{1, 2, 4, 8},
		LoadPerServer: 1.2,
		Resolution:    50,
		Scale:         Full,
		Seed:          20,
	}
}

// MultiServerScaling extends the model to stages with K identical CPUs
// via partitioned dispatch (each admitted task is bound to the least-
// utilized CPU per stage; Theorem 2 over the resource grid provides the
// guarantee without new analysis). The properties to reproduce: zero
// misses at every K and aggregate admitted utilization growing ≈
// linearly with K.
func MultiServerScaling(cfg MultiServerConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: partitioned multiprocessor stages (K CPUs per stage, Theorem 2 per virtual pipeline)",
		Header: []string{"CPUs per stage", "aggregate stage-1 util", "per-CPU util", "miss ratio"},
	}
	for _, k := range cfg.Servers {
		sim := des.New()
		m := pipeline.NewMultiServerPipeline(sim, pipeline.MultiServerOptions{Stages: 2, Servers: k})
		spec := paperSpec(2, cfg.LoadPerServer*float64(k), cfg.Resolution)
		src := workload.NewSource(sim, spec, cfg.Seed, cfg.Scale.Horizon, func(tk *task.Task) { m.Offer(tk) })
		snap := measure(sim, m, cfg.Scale.Warmup, cfg.Scale.Horizon, src.Start)
		agg := m.AggregateStageUtilization(snap)
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", agg[0]),
			fmt.Sprintf("%.3f", agg[0]/float64(k)),
			fmt.Sprintf("%.5f", snap.MissRatio))
	}
	return t
}
