package experiments

import (
	"fmt"

	"feasregion/internal/degrade"
	"feasregion/internal/des"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// DegradeConfig parameterizes the graceful-degradation sweep: an
// imprecise workload (OptionalFraction of every stage demand is
// optional) is offered at each load in Loads to two otherwise identical
// systems — hard rejection (the paper's all-or-nothing §5 admission with
// whole-task eviction) and the overload governor (degrade before you
// reject). Arrivals, demands, deadlines, and importances are identical
// between the variants at each load point.
type DegradeConfig struct {
	Seeds   int
	Stages  int
	Horizon float64
	Warmup  float64

	// Loads are the offered loads (fraction of bottleneck capacity) to
	// sweep; the cliff the governor flattens lives above 1.0.
	Loads []float64

	// MeanDemand / Resolution as in the Fig. 4–7 sweeps.
	MeanDemand float64
	Resolution float64

	// OptionalFraction is the share of every stage demand marked
	// optional (O_ij = frac·C_ij); the rest is mandatory.
	OptionalFraction float64

	// ImportanceClasses spreads semantic importance 1..N across arrivals
	// (by task ID), so eviction pressure exists in both variants.
	ImportanceClasses int

	// Governor configures the degrading variant's overload governor;
	// TickInterval is its control period in simulated seconds.
	Governor     degrade.Config
	TickInterval float64

	Seed int64
}

// DefaultDegrade returns the default configuration: a two-stage
// pipeline swept from light load past 2x the feasible load.
func DefaultDegrade() DegradeConfig {
	return DegradeConfig{
		Seeds:             3,
		Stages:            2,
		Horizon:           600,
		Warmup:            60,
		Loads:             []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0},
		MeanDemand:        1,
		Resolution:        20,
		OptionalFraction:  0.8,
		ImportanceClasses: 8,
		Governor:          degrade.Config{},
		TickInterval:      5,
		Seed:              23,
	}
}

// DegradePoint is one variant's aggregate counters at one load.
type DegradePoint struct {
	Offered   uint64
	Entered   uint64
	Completed uint64
	Missed    uint64
	Shed      uint64 // whole-task evictions
	Degraded  uint64 // admissions below full quality
	Trimmed   uint64 // in-flight quality trims
	Utility   float64
}

// DegradeRow pairs the two variants at one load.
type DegradeRow struct {
	Load     float64
	Reject   DegradePoint // hard rejection + whole-task eviction
	Governor DegradePoint // quality cascade + overload governor
}

// DegradeResult is the sweep outcome, one row per load.
type DegradeResult struct {
	Cfg  DegradeConfig
	Rows []DegradeRow
}

// Degrade runs the utility-vs-load sweep. The claim to verify (asserted
// in the package tests, deterministically under the fixed seed): at and
// above 1.5x the feasible load the governor delivers strictly higher
// total utility with strictly fewer evictions than hard rejection, and
// no admitted task — degraded or not — misses its deadline.
func Degrade(cfg DegradeConfig) DegradeResult {
	res := DegradeResult{Cfg: cfg}
	for _, load := range cfg.Loads {
		row := DegradeRow{Load: load}
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)*104729
			accumulate(&row.Reject, degradeRun(cfg, load, seed, false))
			accumulate(&row.Governor, degradeRun(cfg, load, seed, true))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// accumulate folds one seed's window metrics into the variant's point.
func accumulate(pt *DegradePoint, m pipeline.Metrics) {
	pt.Offered += m.Offered
	pt.Entered += m.EnteredService
	pt.Completed += m.Completed
	pt.Missed += m.Missed
	pt.Shed += m.Shed
	pt.Degraded += m.Degraded
	pt.Trimmed += m.TrimmedTasks
	pt.Utility += m.UtilityDelivered
}

// degradeRun simulates one seed of one variant at one load and returns
// the measurement-window metrics.
func degradeRun(cfg DegradeConfig, load float64, seed int64, governed bool) pipeline.Metrics {
	sim := des.New()
	opts := pipeline.Options{Stages: cfg.Stages, EnableShedding: true}
	if governed {
		gcfg := cfg.Governor
		opts.Governor = &gcfg
	}
	p := pipeline.New(sim, opts)

	spec := workload.PipelineSpec{
		Stages:     cfg.Stages,
		Load:       load,
		MeanDemand: cfg.MeanDemand,
		Resolution: cfg.Resolution,
	}
	// Importance and the optional split derive from the task ID, so the
	// two variants see byte-identical workloads at each load point.
	src := workload.NewSource(sim, spec, seed, cfg.Horizon, func(tk *task.Task) {
		tk.Importance = 1 + float64(uint64(tk.ID)%uint64(cfg.ImportanceClasses))
		tk.SetOptionalFraction(cfg.OptionalFraction)
		p.Offer(tk)
	})

	if g := p.Governor(); g != nil {
		g.ScheduleSim(sim, cfg.TickInterval, cfg.Horizon)
	}
	return measure(sim, p, cfg.Warmup, cfg.Horizon, src.Start)
}

// Table renders the utility-vs-load comparison.
func (r DegradeResult) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Extension: degrade before you reject (%d stages, %.0f%% optional demand, %d importance classes, %d seeds)",
			r.Cfg.Stages, r.Cfg.OptionalFraction*100, r.Cfg.ImportanceClasses, r.Cfg.Seeds),
		Header: []string{"load", "variant", "offered", "accepted", "completed", "degraded", "trimmed", "evicted", "misses", "utility"},
	}
	for _, row := range r.Rows {
		for _, v := range []struct {
			name string
			pt   DegradePoint
		}{{"reject", row.Reject}, {"governor", row.Governor}} {
			accept := 0.0
			if v.pt.Offered > 0 {
				accept = float64(v.pt.Entered) / float64(v.pt.Offered)
			}
			t.AddRow(
				fmt.Sprintf("%.2f", row.Load),
				v.name,
				fmt.Sprintf("%d", v.pt.Offered),
				fmt.Sprintf("%.1f%%", accept*100),
				fmt.Sprintf("%d", v.pt.Completed),
				fmt.Sprintf("%d", v.pt.Degraded),
				fmt.Sprintf("%d", v.pt.Trimmed),
				fmt.Sprintf("%d", v.pt.Shed),
				fmt.Sprintf("%d", v.pt.Missed),
				fmt.Sprintf("%.1f", v.pt.Utility),
			)
		}
	}
	return t
}
