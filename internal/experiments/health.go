package experiments

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/obs"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// HealthConfig parameterizes the stage-health feedback demonstration: a
// seeded slowdown window degrades one stage while the admission
// controller, unaware, keeps admitting at nominal demand estimates. The
// monitored variant closes the loop — the obs.Monitor's service-time
// EWMA detects the inflation and scales the stage's admission demands —
// and is compared against the identical fault schedule unmonitored.
type HealthConfig struct {
	Seeds   int
	Stages  int
	Horizon float64
	Warmup  float64
	// Load and Resolution shape the workload as in the Fig. 4-7 sweeps.
	Load       float64
	Resolution float64

	// SlowStage degrades by SlowFactor during [SlowStart, SlowStart+SlowLen).
	SlowStage  int
	SlowStart  float64
	SlowLen    float64
	SlowFactor float64

	// Monitor configures the health monitor (Stages is filled in).
	Monitor obs.Config

	Seed int64
}

// DefaultHealth returns the default configuration.
func DefaultHealth() HealthConfig {
	return HealthConfig{
		Seeds:      5,
		Stages:     3,
		Horizon:    900,
		Warmup:     100,
		Load:       1.2,
		Resolution: 20,
		SlowStage:  1,
		SlowStart:  250,
		SlowLen:    300,
		SlowFactor: 4,
		Monitor: obs.Config{
			Alpha:            0.3,
			MinSamples:       15,
			DegradeThreshold: 1.5,
			RecoverThreshold: 1.15,
			MaxScale:         8,
		},
		Seed: 11,
	}
}

// HealthVariant aggregates one variant's counters across seeds.
type HealthVariant struct {
	Name         string
	Offered      uint64
	Entered      uint64
	Completed    uint64
	Missed       uint64
	AcceptRatio  float64 // mean across seeds
	ScaleChanges uint64
	MaxScale     float64
}

// HealthResult is the experiment outcome: Variants[0] is the
// unmonitored baseline, Variants[1] the closed-loop run.
type HealthResult struct {
	Cfg      HealthConfig
	Variants [2]HealthVariant
}

// Health runs the feedback demonstration: for each seed, the same
// workload and the same explicit slowdown window are simulated twice,
// once with admission blind to the degradation and once with the
// stage-health monitor driving the controller's per-stage demand scale.
// The claim to verify: the monitored run admits less during the window
// and misses strictly fewer deadlines.
func Health(cfg HealthConfig) HealthResult {
	res := HealthResult{Cfg: cfg}
	for v, monitored := range []bool{false, true} {
		name := "unmonitored"
		if monitored {
			name = "ewma-monitor"
		}
		agg := HealthVariant{Name: name, MaxScale: 1}
		var accepts []float64
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)*7919
			inj := faults.New(faults.Config{
				Stages: cfg.Stages,
				SlowWindows: []faults.SlowWindow{{
					Stage:    cfg.SlowStage,
					Start:    cfg.SlowStart,
					Duration: cfg.SlowLen,
					Factor:   cfg.SlowFactor,
				}},
			}, seed)
			sim := des.New()
			var mon *obs.Monitor
			popts := pipeline.Options{Stages: cfg.Stages, Faults: inj}
			if monitored {
				mcfg := cfg.Monitor
				mcfg.Stages = cfg.Stages
				mon = obs.NewMonitor(mcfg, nil)
				popts.Health = mon
			}
			p := pipeline.New(sim, popts)
			if mon != nil {
				mon.SetScaler(p.Controller())
			}
			spec := paperSpec(cfg.Stages, cfg.Load, cfg.Resolution)
			src := workload.NewSource(sim, spec, seed, cfg.Horizon, func(tk *task.Task) { p.Offer(tk) })
			m := measure(sim, p, cfg.Warmup, cfg.Horizon, src.Start)

			agg.Offered += m.Offered
			agg.Entered += m.EnteredService
			agg.Completed += m.Completed
			agg.Missed += m.Missed
			accepts = append(accepts, m.AcceptRatio)
			if mon != nil {
				agg.ScaleChanges += mon.ScaleChanges()
				if mx := mon.MaxScaleApplied(); mx > agg.MaxScale {
					agg.MaxScale = mx
				}
			}
		}
		agg.AcceptRatio = stats.Summarize(accepts).Mean
		res.Variants[v] = agg
	}
	return res
}

// Table renders the comparison.
func (r HealthResult) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Extension: stage-health feedback (stage %d runs x%.2g slower over [%.4g, %.4g), %d seeds)",
			r.Cfg.SlowStage, r.Cfg.SlowFactor, r.Cfg.SlowStart, r.Cfg.SlowStart+r.Cfg.SlowLen, r.Cfg.Seeds),
		Header: []string{"variant", "offered", "accepted", "completed", "deadline misses", "miss ratio", "scale changes", "max scale"},
	}
	for _, v := range r.Variants {
		missRatio := 0.0
		if v.Completed > 0 {
			missRatio = float64(v.Missed) / float64(v.Completed)
		}
		t.AddRow(v.Name,
			fmt.Sprintf("%d", v.Offered),
			fmt.Sprintf("%.1f%%", v.AcceptRatio*100),
			fmt.Sprintf("%d", v.Completed),
			fmt.Sprintf("%d", v.Missed),
			fmt.Sprintf("%.4f", missRatio),
			fmt.Sprintf("%d", v.ScaleChanges),
			fmt.Sprintf("%.3g", v.MaxScale))
	}
	return t
}
