package experiments

import (
	"fmt"

	"feasregion/internal/adapt"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// adaptLiarBase is the first task ID of the lying workload class: the
// two generators partition the ID space so the fault injector's liar
// filter can target exactly one class.
const adaptLiarBase task.ID = 1_000_000

// AdaptConfig parameterizes the closed-loop adaptation demonstration.
// Two workload classes share the pipeline: an honest class whose tasks
// declare their demands truthfully, and a lying class that executes
// LiarFactor times longer than declared at every stage. A seeded
// slowdown window additionally degrades one stage mid-run. The static
// variant meets this with a fixed region and a fixed guard tolerance;
// the adaptive variant runs the full adapt.Loop — per-class demand
// inflation replacing the tolerance, and measured β/α tightening the
// region during the degradation.
type AdaptConfig struct {
	Seeds   int
	Stages  int
	Horizon float64
	Warmup  float64

	// HonestLoad / LiarLoad are the two classes' offered loads (fraction
	// of bottleneck capacity each); Resolution as in the Fig. 4-7 sweeps.
	HonestLoad float64
	LiarLoad   float64
	Resolution float64

	// LiarFactor is the lying class's execution inflation (≥ 1).
	LiarFactor float64

	// SlowStage degrades by SlowFactor during [SlowStart, SlowStart+SlowLen).
	SlowStage  int
	SlowStart  float64
	SlowLen    float64
	SlowFactor float64

	// StaticTolerance is the static variant's guard tolerance — the
	// hand-tuned knob the demand estimator replaces.
	StaticTolerance float64

	// Adapt configures the adaptive variant's loop; TickInterval is the
	// estimation period in simulated seconds.
	Adapt        adapt.Config
	TickInterval float64

	Seed int64
}

// DefaultAdapt returns the default configuration.
func DefaultAdapt() AdaptConfig {
	return AdaptConfig{
		Seeds:           5,
		Stages:          3,
		Horizon:         900,
		Warmup:          100,
		HonestLoad:      0.8,
		LiarLoad:        0.6,
		Resolution:      20,
		LiarFactor:      3,
		SlowStage:       1,
		SlowStart:       300,
		SlowLen:         300,
		SlowFactor:      3,
		StaticTolerance: 0.5,
		Adapt: adapt.Config{
			DeadlineRef: 60, // Resolution 20 × 3 stages × mean demand 1
			Beta:        adapt.BetaConfig{Enabled: true, MinSamples: 30},
			Alpha:       adapt.AlphaConfig{Enabled: true, MinSamples: 30, Floor: 0.6},
			Demand:      adapt.DemandConfig{Enabled: true, MinSamples: 10, Max: 4},
		},
		TickInterval: 15,
		Seed:         17,
	}
}

// AdaptVariant aggregates one variant's counters across seeds.
type AdaptVariant struct {
	Name        string
	Offered     uint64
	Entered     uint64
	Completed   uint64
	Missed      uint64
	AcceptRatio float64 // mean across seeds
	Detected    uint64  // guard overrun detections (lifetime)

	// Adaptive-only diagnostics (zero for the static variant):
	LiarInflation float64 // mean final liar-class demand inflation
	Alpha         float64 // mean final α
	Bound         float64 // mean final region bound α(1−Σβ)
	RegionUpdates uint64  // total region updates pushed
}

// AdaptResult is the experiment outcome: Variants[0] is the static
// baseline, Variants[1] the closed-loop run.
type AdaptResult struct {
	Cfg      AdaptConfig
	Variants [2]AdaptVariant
}

// Adapt runs the demonstration: for each seed, the identical workload
// and fault schedule are simulated twice, differing only in whether the
// estimation loop is closed. The claim to verify (asserted in the
// package tests): the adaptive variant misses strictly fewer deadlines
// while still admitting at least 90% as many tasks.
func Adapt(cfg AdaptConfig) AdaptResult {
	res := AdaptResult{Cfg: cfg}
	for v, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		agg := AdaptVariant{Name: name}
		var accepts, inflations, alphas, bounds []float64
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)*7919
			m, loop := adaptRun(cfg, seed, adaptive)
			agg.Offered += m.Offered
			agg.Entered += m.EnteredService
			agg.Completed += m.Completed
			agg.Missed += m.Missed
			agg.Detected += m.GuardStats.Detected
			accepts = append(accepts, m.AcceptRatio)
			if loop != nil {
				snap := loop.Snapshot()
				agg.RegionUpdates += snap.RegionUpdates
				inflations = append(inflations, loop.ClassInflation("liar"))
				alphas = append(alphas, snap.Alpha)
				r := core.Region{Stages: cfg.Stages, Alpha: snap.Alpha, Betas: snap.Betas}
				bounds = append(bounds, r.Bound())
			}
		}
		agg.AcceptRatio = stats.Summarize(accepts).Mean
		if adaptive {
			agg.LiarInflation = stats.Summarize(inflations).Mean
			agg.Alpha = stats.Summarize(alphas).Mean
			agg.Bound = stats.Summarize(bounds).Mean
		}
		res.Variants[v] = agg
	}
	return res
}

// adaptRun simulates one seed of one variant and returns the window
// metrics and, for the adaptive variant, the estimation loop.
func adaptRun(cfg AdaptConfig, seed int64, adaptive bool) (pipeline.Metrics, *adapt.Loop) {
	inj := faults.New(faults.Config{
		Stages:       cfg.Stages,
		LiarFraction: 1,
		LiarFactor:   cfg.LiarFactor,
		LiarFilter:   func(id task.ID) bool { return id >= adaptLiarBase },
		SlowWindows: []faults.SlowWindow{{
			Stage:    cfg.SlowStage,
			Start:    cfg.SlowStart,
			Duration: cfg.SlowLen,
			Factor:   cfg.SlowFactor,
		}},
	}, seed)
	sim := des.New()
	popts := pipeline.Options{
		Stages:        cfg.Stages,
		Faults:        inj,
		OverrunPolicy: core.OverrunRecharge,
	}
	if adaptive {
		acfg := cfg.Adapt
		popts.Adapt = &acfg
	} else {
		popts.OverrunTolerance = cfg.StaticTolerance
	}
	p := pipeline.New(sim, popts)

	honest := paperSpec(cfg.Stages, cfg.HonestLoad, cfg.Resolution)
	liars := paperSpec(cfg.Stages, cfg.LiarLoad, cfg.Resolution)
	hsrc := workload.NewSource(sim, honest, seed, cfg.Horizon, func(tk *task.Task) {
		tk.Class = "honest"
		p.Offer(tk)
	})
	lsrc := workload.NewSource(sim, liars, seed*31+7, cfg.Horizon, func(tk *task.Task) {
		tk.Class = "liar"
		p.Offer(tk)
	})
	lsrc.SetFirstID(adaptLiarBase)

	if loop := p.AdaptLoop(); loop != nil {
		loop.ScheduleSim(sim, cfg.TickInterval, cfg.Horizon)
	}
	return measure(sim, p, cfg.Warmup, cfg.Horizon, hsrc.Start, lsrc.Start), p.AdaptLoop()
}

// Table renders the comparison.
func (r AdaptResult) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Extension: closed-loop adaptation (liar class x%.2g declared demand, stage %d x%.2g slower over [%.4g, %.4g), %d seeds)",
			r.Cfg.LiarFactor, r.Cfg.SlowStage, r.Cfg.SlowFactor, r.Cfg.SlowStart, r.Cfg.SlowStart+r.Cfg.SlowLen, r.Cfg.Seeds),
		Header: []string{"variant", "offered", "accepted", "completed", "deadline misses", "miss ratio", "overruns seen", "liar inflation", "alpha", "bound", "region updates"},
	}
	for _, v := range r.Variants {
		missRatio := 0.0
		if v.Completed > 0 {
			missRatio = float64(v.Missed) / float64(v.Completed)
		}
		infl, alpha, bound := "-", "-", "-"
		if v.Name == "adaptive" {
			infl = fmt.Sprintf("%.3g", v.LiarInflation)
			alpha = fmt.Sprintf("%.3g", v.Alpha)
			bound = fmt.Sprintf("%.3g", v.Bound)
		}
		t.AddRow(v.Name,
			fmt.Sprintf("%d", v.Offered),
			fmt.Sprintf("%.1f%%", v.AcceptRatio*100),
			fmt.Sprintf("%d", v.Completed),
			fmt.Sprintf("%d", v.Missed),
			fmt.Sprintf("%.4f", missRatio),
			fmt.Sprintf("%d", v.Detected),
			infl, alpha, bound,
			fmt.Sprintf("%d", v.RegionUpdates))
	}
	return t
}
