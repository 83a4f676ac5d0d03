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

// AblationIdleResetConfig parameterizes the idle-reset ablation.
type AblationIdleResetConfig struct {
	Loads      []float64
	Stages     int
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultAblationIdleReset returns the default sweep.
func DefaultAblationIdleReset() AblationIdleResetConfig {
	return AblationIdleResetConfig{
		Loads:      []float64{0.8, 1.0, 1.5, 2.0},
		Stages:     2,
		Resolution: 100,
		Scale:      Full,
		Seed:       6,
	}
}

// AblationIdleReset quantifies the paper's §4 claim that resetting
// synthetic utilization at stage idle times is "a very important tool
// that reduces the pessimism of admission control": the same workload is
// run with and without the reset.
func AblationIdleReset(cfg AblationIdleResetConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Ablation: idle reset of synthetic utilization (mean stage utilization after admission)",
		Header: []string{"load", "with reset", "without reset"},
	}
	for _, load := range cfg.Loads {
		spec := paperSpec(cfg.Stages, load, cfg.Resolution)
		with := RunPipelinePoint(spec, defaultOpts(cfg.Stages), cfg.Scale, cfg.Seed)
		without := RunPipelinePoint(spec, withOpts(pipeline.Options{Stages: cfg.Stages, DisableIdleReset: true}), cfg.Scale, cfg.Seed)
		t.AddRow(
			fmt.Sprintf("%.0f%%", load*100),
			fmt.Sprintf("%.3f", with.MeanUtil.Mean),
			fmt.Sprintf("%.3f", without.MeanUtil.Mean),
		)
	}
	return t
}

// AblationAlphaConfig parameterizes the urgency-inversion ablation.
type AblationAlphaConfig struct {
	Load       float64
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultAblationAlpha returns the default configuration: heavy load and
// coarse tasks so that ignoring α actually bites.
func DefaultAblationAlpha() AblationAlphaConfig {
	return AblationAlphaConfig{Load: 2.0, Resolution: 5, Scale: Full, Seed: 7}
}

// AblationAlphaPolicies compares scheduling policies on a two-stage
// pipeline (Eq. 12): deadline-monotonic with α = 1, random priorities
// with the correct α = Dleast/Dmost, and — as a cautionary row — random
// priorities with the DM region (α ignored), which voids the guarantee.
func AblationAlphaPolicies(cfg AblationAlphaConfig) *stats.Table {
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	// Deadlines are uniform in mean·[0.5, 1.5]: Dleast/Dmost = 1/3.
	alphaRandom := 1.0 / 3

	rows := []struct {
		name   string
		policy task.Policy
		alpha  float64
	}{
		{"deadline-monotonic (α=1)", task.DeadlineMonotonic{}, 1},
		{fmt.Sprintf("random (α=%.3f honored)", alphaRandom), task.Random{}, alphaRandom},
		{"random (α ignored: UNSOUND)", task.Random{}, 1},
	}

	t := &stats.Table{
		Title:  "Ablation: arbitrary fixed-priority policies and the urgency-inversion parameter α (Eq. 12)",
		Header: []string{"policy", "region bound", "stage util", "miss ratio"},
	}
	for i, row := range rows {
		region := core.NewRegion(2).WithAlpha(row.alpha)
		policy := row.policy
		pt := RunPipelinePoint(spec, func(*des.Simulator, int, int64) Replication {
			return Replication{Opts: pipeline.Options{
				Stages:      2,
				Policy:      policy,
				Region:      &region,
				PriorityRNG: dist.NewRNG(cfg.Seed + int64(i)),
			}}
		}, cfg.Scale, cfg.Seed)
		t.AddRow(
			row.name,
			fmt.Sprintf("%.3f", region.Bound()),
			fmt.Sprintf("%.3f", pt.MeanUtil.Mean),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean),
		)
	}
	return t
}

// AblationBlockingConfig parameterizes the critical-section ablation.
type AblationBlockingConfig struct {
	Load       float64
	Resolution float64
	// CSDuration is the fixed critical-section length appended to every
	// task's stage-0 subtask.
	CSDuration float64
	Scale      Scale
	Seed       int64
}

// DefaultAblationBlocking returns the default configuration.
func DefaultAblationBlocking() AblationBlockingConfig {
	return AblationBlockingConfig{Load: 1.5, Resolution: 8, CSDuration: 0.5, Scale: Full, Seed: 8}
}

// AblationBlocking exercises Eq. 15: every task executes a critical
// section of fixed length on a shared stage-0 lock under the priority
// ceiling protocol. The region shrunk by β = CS/Dleast keeps all
// admitted tasks schedulable; the unshrunk region (β ignored) is shown
// for contrast.
func AblationBlocking(cfg AblationBlockingConfig) *stats.Table {
	spec := paperSpec(2, cfg.Load, cfg.Resolution)
	// β_0 = CS / Dleast with deadlines uniform in mean·[0.5, 1.5].
	dLeast := spec.MeanDeadline() * 0.5
	betas := []float64{cfg.CSDuration / dLeast, 0}

	t := &stats.Table{
		Title:  "Ablation: critical sections under PCP and the blocking terms β (Eq. 15)",
		Header: []string{"region", "bound", "stage util", "miss ratio"},
	}
	for _, honored := range []bool{true, false} {
		region := core.NewRegion(2)
		name := "β ignored (UNSOUND)"
		if honored {
			region = region.WithBetas(betas)
			name = fmt.Sprintf("β honored (β0=%.4f)", betas[0])
		}
		pt := runBlockingPoint(spec, region, cfg, cfg.Seed)
		t.AddRow(name, fmt.Sprintf("%.3f", region.Bound()),
			fmt.Sprintf("%.3f", pt.MeanUtil.Mean),
			fmt.Sprintf("%.5f", pt.MissRatio.Mean))
	}
	return t
}

// runBlockingPoint runs the default pipeline under region with every
// generated task carrying a critical section on a shared stage-0 lock.
func runBlockingPoint(spec workload.PipelineSpec, region core.Region, cfg AblationBlockingConfig, seed int64) Point {
	const lockID = 1
	return RunPipelinePoint(spec, func(sim *des.Simulator, _ int, seed int64) Replication {
		return Replication{
			Opts: pipeline.Options{Stages: 2, Region: &region},
			Source: func(p *pipeline.Pipeline) *workload.Source {
				// Ceiling 0: every priority may use the lock (most restrictive).
				p.RegisterLock(0, lockID, 0)
				return workload.NewSource(sim, spec, seed, cfg.Scale.Horizon, func(tk *task.Task) {
					addCriticalSection(tk, cfg.CSDuration, lockID)
					p.Offer(tk)
				})
			},
		}
	}, cfg.Scale, seed)
}

// addCriticalSection appends a fixed-length critical section to the
// task's stage-0 subtask.
func addCriticalSection(tk *task.Task, dur float64, lockID int) {
	sub := &tk.Subtasks[0]
	sub.Segments = []task.Segment{
		{Duration: sub.Demand, Lock: task.NoLock},
		{Duration: dur, Lock: lockID},
	}
	sub.Demand += dur
}
