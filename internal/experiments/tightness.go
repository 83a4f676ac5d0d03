package experiments

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// TightnessConfig parameterizes the Theorem 1 bound-tightness study.
type TightnessConfig struct {
	Loads      []float64
	Stages     int
	Resolution float64
	Scale      Scale
	Seed       int64
}

// DefaultTightness returns the default sweep.
func DefaultTightness() TightnessConfig {
	return TightnessConfig{
		Loads:      []float64{0.8, 1.2, 2.0},
		Stages:     2,
		Resolution: 20,
		Scale:      Full,
		Seed:       16,
	}
}

// BoundTightness measures how conservative the stage delay theorem is in
// practice: for each stage it reports the largest observed per-stage
// delay against the analytic bound f(U_peak)·Dmax, where U_peak is the
// stage ledger's observed synthetic-utilization peak and Dmax the
// largest admitted deadline. A ratio well below 1 quantifies the
// pessimism that the idle reset (and the evaluation's high acceptance
// ratios) exploit.
func BoundTightness(cfg TightnessConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: Theorem 1 tightness — observed max stage delay vs analytic bound f(U_peak)·Dmax",
		Header: []string{"load", "stage", "max delay", "bound", "ratio"},
	}
	for _, load := range cfg.Loads {
		spec := paperSpec(cfg.Stages, load, cfg.Resolution)
		sim := des.New()
		p := pipeline.New(sim, pipeline.Options{Stages: cfg.Stages})
		maxDeadline := 0.0
		src := workload.NewSource(sim, spec, cfg.Seed, cfg.Scale.Horizon, func(tk *task.Task) {
			if p.Offer(tk) && tk.Deadline > maxDeadline {
				maxDeadline = tk.Deadline
			}
		})
		m := measure(sim, p, cfg.Scale.Warmup, cfg.Scale.Horizon, src.Start)

		for j := 0; j < cfg.Stages; j++ {
			peak := p.Controller().Ledger(j).Peak()
			bound := core.StageDelayFactor(peak) * maxDeadline
			observed := m.StageDelays[j].Max()
			ratio := 0.0
			if bound > 0 {
				ratio = observed / bound
			}
			t.AddRow(
				fmt.Sprintf("%.0f%%", load*100),
				fmt.Sprintf("%d", j+1),
				fmt.Sprintf("%.3f", observed),
				fmt.Sprintf("%.3f", bound),
				fmt.Sprintf("%.3f", ratio),
			)
		}
	}
	return t
}
