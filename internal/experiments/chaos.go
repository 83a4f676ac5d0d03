package experiments

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/trace"
)

// ChaosConfig parameterizes the fault-injection policy comparison: a
// fraction of tasks lie about their demand (execute LiarFactor times
// longer than declared) and a fraction of stage-idle callbacks are lost,
// while the overrun guard runs under each policy in turn.
type ChaosConfig struct {
	// Seeds is the number of independent fault schedules per policy.
	Seeds   int
	Stages  int
	Horizon float64
	Warmup  float64
	// Load and Resolution shape the workload as in the Fig. 4-7 sweeps.
	Load       float64
	Resolution float64

	LiarFraction float64
	LiarFactor   float64
	IdleLossProb float64

	Seed int64
}

// DefaultChaos returns the default configuration.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Seeds:        5,
		Stages:       3,
		Horizon:      800,
		Warmup:       100,
		Load:         1.5,
		Resolution:   20,
		LiarFraction: 0.25,
		LiarFactor:   3,
		IdleLossProb: 0.15,
		Seed:         21,
	}
}

// Chaos compares the overrun-guard policies under identical seeded fault
// schedules. The property to demonstrate: without the guard, liars
// steal capacity the admission test accounted to others and
// truthfully-declared tasks miss deadlines; with abort-and-evict, a liar
// is cut off exactly at its declared demand, so its interference never
// exceeds what admission charged and truthful misses return to zero.
// Re-charge sits between: lies are absorbed into the ledgers, throttling
// future admission instead of evicting.
func Chaos(cfg ChaosConfig) *stats.Table {
	policies := []core.OverrunPolicy{
		core.OverrunIgnore, core.OverrunLog, core.OverrunRecharge, core.OverrunEvict,
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Extension: overrun-guard policies under fault injection (%.0f%% liars x%.2g, %.0f%% idle-callback loss, %d seeds)",
			cfg.LiarFraction*100, cfg.LiarFactor, cfg.IdleLossProb*100, cfg.Seeds),
		Header: []string{"policy", "accepted", "completed", "truthful misses", "liar misses", "detected", "evicted", "re-charged"},
	}
	spec := paperSpec(cfg.Stages, cfg.Load, cfg.Resolution)
	sc := Scale{Horizon: cfg.Horizon, Warmup: cfg.Warmup, Replications: cfg.Seeds}
	for _, pol := range policies {
		var truthfulMisses, liarMisses uint64
		var gs core.GuardStats
		pt := RunPipelinePoint(spec, func(_ *des.Simulator, _ int, seed int64) Replication {
			inj := faults.New(faults.Config{
				Stages:       cfg.Stages,
				Horizon:      cfg.Horizon,
				LiarFraction: cfg.LiarFraction,
				LiarFactor:   cfg.LiarFactor,
				IdleLossProb: cfg.IdleLossProb,
			}, seed)
			rec := trace.New(0)
			return Replication{
				Opts: pipeline.Options{
					Stages:        cfg.Stages,
					OverrunPolicy: pol,
					Faults:        inj,
					Trace:         rec,
				},
				Done: func(m pipeline.Metrics) {
					for _, r := range rec.Records() {
						if r.Kind != "miss" {
							continue
						}
						if inj.Liar(r.Task) {
							liarMisses++
						} else {
							truthfulMisses++
						}
					}
					gs.Detected += m.GuardStats.Detected
					gs.Evictions += m.GuardStats.Evictions
					gs.Recharged += m.GuardStats.Recharged
				},
			}
		}, sc, cfg.Seed)
		t.AddRow(pol.String(),
			fmt.Sprintf("%.1f%%", pt.AcceptRatio.Mean*100),
			fmt.Sprintf("%d", pt.Completed),
			fmt.Sprintf("%d", truthfulMisses),
			fmt.Sprintf("%d", liarMisses),
			fmt.Sprintf("%d", gs.Detected),
			fmt.Sprintf("%d", gs.Evictions),
			fmt.Sprintf("%d", gs.Recharged))
	}
	return t
}
