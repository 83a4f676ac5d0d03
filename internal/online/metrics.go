package online

import "feasregion/internal/metrics"

// RegisterMetrics describes the controller's state to the registry as
// read-on-scrape series, so the admission hot path is untouched: counter
// funcs mirror the Stats counters and gauge funcs read the per-stage
// synthetic utilization, demand scales, and region value/headroom. A nil
// registry is a no-op. Call it once, at wiring time.
func (c *Controller) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	stat := func(read func(Stats) uint64) func() float64 {
		return func() float64 { return float64(read(c.Stats())) }
	}
	r.CounterFunc("feasregion_online_admitted_total", "requests accepted by the admission test",
		stat(func(s Stats) uint64 { return s.Admitted }))
	r.CounterFunc("feasregion_online_rejected_total", "requests rejected by the admission test",
		stat(func(s Stats) uint64 { return s.Rejected }))
	r.CounterFunc("feasregion_online_gate_rejected_total", "rejections decided by the lock-free overload gate (included in rejected_total)",
		stat(func(s Stats) uint64 { return s.GateRejects }))
	r.CounterFunc("feasregion_online_expired_total", "contributions removed by the lazy deadline purge",
		stat(func(s Stats) uint64 { return s.Expired }))
	r.CounterFunc("feasregion_online_idle_resets_total", "stage-idle calls that freed at least one contribution",
		stat(func(s Stats) uint64 { return s.IdleResets }))
	r.CounterFunc("feasregion_online_reconciles_total", "watchdog reconciliation passes",
		stat(func(s Stats) uint64 { return s.Reconciles }))
	r.CounterFunc("feasregion_online_clock_regressions_total", "observations of the wall clock stepping backwards",
		stat(func(s Stats) uint64 { return s.ClockRegressions }))

	for j := 0; j < c.stages; j++ {
		j := j
		r.GaugeFunc("feasregion_online_stage_synthetic_utilization", "per-stage synthetic utilization U_j(t)",
			func() float64 { return c.StageUtilization(j) }, metrics.Stage(j))
		r.GaugeFunc("feasregion_online_stage_scale", "per-stage admission demand multiplier (1 = nominal)",
			func() float64 { return c.StageScale(j) }, metrics.Stage(j))
	}
	r.GaugeFunc("feasregion_online_region_value", "current region value sum f(U_j)",
		func() float64 { v, _ := c.RegionValue(); return v })
	r.GaugeFunc("feasregion_online_region_bound", "current admission bound α·(1−Σβ_j); moves under adaptive estimation",
		c.Bound)
	r.GaugeFunc("feasregion_online_region_headroom", "region bound minus current value; admission stops at 0",
		func() float64 { v, b := c.RegionValue(); return b - v })
}
