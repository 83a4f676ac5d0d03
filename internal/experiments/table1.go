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

// Table1Certification reproduces the paper's §5 worked example: the
// per-stage synthetic utilization reserved for Weapon Detection, Weapon
// Targeting, and UAV Video is (0.40, 0.25, 0.10); substituting in Eq. 13
// gives ≈0.93 < 1, so the critical set is certified schedulable.
func Table1Certification() (*stats.Table, float64) {
	scenario := workload.NewTSCE()
	reserved := scenario.ReservedUtilization()
	region := core.NewRegion(3)
	value := region.Value(reserved)

	t := &stats.Table{
		Title:  "Table 1 certification: reserved synthetic utilization per stage (Eq. 13)",
		Header: []string{"stage", "reserved U_j", "f(U_j)"},
	}
	for j, u := range reserved {
		t.AddRow(fmt.Sprintf("%d", j+1), fmt.Sprintf("%.2f", u),
			fmt.Sprintf("%.4f", core.StageDelayFactor(u)))
	}
	verdict := "CERTIFIED (inside the feasible region)"
	if value > region.Bound() {
		verdict = "NOT schedulable"
	}
	t.AddRow("sum", "", fmt.Sprintf("%.4f ≤ %.0f: %s", value, region.Bound(), verdict))
	return t, value
}

// Table1Config parameterizes the dynamic track-capacity simulation.
type Table1Config struct {
	// Tracks are the track counts to try (the paper gradually increases
	// the count until rejections appear, reaching ≈550).
	Tracks []int
	// Horizon is the simulated time in seconds; Warmup precedes
	// measurement.
	Horizon, Warmup float64
	// DisableIdleReset turns off the reset, the mechanism the paper
	// credits for the system running at ≈95% stage-1 utilization.
	DisableIdleReset bool
	Seed             int64
}

// DefaultTable1 returns the scenario's default sweep.
func DefaultTable1() Table1Config {
	return Table1Config{
		Tracks:  []int{100, 200, 300, 400, 450, 500, 525, 550, 575, 600, 650},
		Horizon: 20,
		Warmup:  4,
		Seed:    5,
	}
}

// Table1Point is the outcome of one track count.
type Table1Point struct {
	Tracks      int
	Stage1Util  float64
	TimedOut    uint64
	Offered     uint64
	Missed      uint64
	Completed   uint64
	RejectRatio float64
}

// Table1Result holds the sweep and the resulting capacity estimate.
type Table1Result struct {
	Config Table1Config
	Points []Table1Point
	// Capacity is the largest tried track count with no rejections and
	// no deadline misses (the paper reports ≈550 tracks at ≈95% stage-1
	// utilization).
	Capacity          int
	CapacityStageUtil float64
}

// Table1TrackCapacity runs the §5 simulation: the three critical streams
// execute against reserved synthetic utilization (0.40, 0.25, 0.10)
// while Target Tracking tasks are admitted dynamically through a 200 ms
// wait-queue admission controller using Eq. 13.
func Table1TrackCapacity(cfg Table1Config) Table1Result {
	res := Table1Result{Config: cfg}
	for _, n := range cfg.Tracks {
		pt := runTSCE(cfg, n)
		res.Points = append(res.Points, pt)
		if pt.TimedOut == 0 && pt.Missed == 0 {
			res.Capacity = n
			res.CapacityStageUtil = pt.Stage1Util
		}
	}
	return res
}

func runTSCE(cfg Table1Config, tracks int) Table1Point {
	scenario := workload.NewTSCE()
	sim := des.New()
	p := pipeline.New(sim, pipeline.Options{
		Stages:           3,
		Reserved:         scenario.ReservedUtilization(),
		MaxWait:          scenario.AdmissionHold,
		DisableIdleReset: cfg.DisableIdleReset,
	})
	rng := dist.NewRNG(cfg.Seed)
	var id task.ID
	scenario.ScheduleReserved(sim, rng, cfg.Horizon, &id, p.Inject)
	scenario.ScheduleTracking(sim, rng, tracks, cfg.Horizon, &id, func(t *task.Task) { p.Offer(t) })
	// The hold keeps timing out while the calendar drains, so read it at
	// the horizon, just before measure's snapshot.
	var wq core.WaitStats
	sim.At(cfg.Horizon, func() { wq = p.WaitQueue().Stats() })
	m := measure(sim, p, cfg.Warmup, cfg.Horizon)
	pt := Table1Point{
		Tracks:     tracks,
		Stage1Util: m.StageUtilization[0],
		TimedOut:   wq.TimedOut,
		Offered:    m.Offered,
		Missed:     m.Missed,
		Completed:  m.Completed,
	}
	if total := wq.AdmittedImmediately + wq.AdmittedAfterWait + wq.TimedOut; total > 0 {
		pt.RejectRatio = float64(wq.TimedOut) / float64(total)
	}
	return pt
}

// Table renders the sweep plus the capacity line.
func (r Table1Result) Table() *stats.Table {
	t := &stats.Table{
		Title:  "Table 1 simulation: dynamic Target Tracking admission (reserved critical tasks + 200 ms hold)",
		Header: []string{"tracks", "stage-1 util", "rejected", "reject ratio", "missed"},
	}
	for _, pt := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", pt.Tracks),
			fmt.Sprintf("%.3f", pt.Stage1Util),
			fmt.Sprintf("%d", pt.TimedOut),
			fmt.Sprintf("%.4f", pt.RejectRatio),
			fmt.Sprintf("%d", pt.Missed),
		)
	}
	t.AddRow("capacity", fmt.Sprintf("%d tracks at stage-1 util %.3f", r.Capacity, r.CapacityStageUtil), "", "", "")
	return t
}
