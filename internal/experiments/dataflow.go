package experiments

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// DataFlowConfig parameterizes the §5 back-end data-flow experiment:
// sensor-processing DAG tasks (branching and rejoining) admitted under
// Theorem 2 on five resources.
type DataFlowConfig struct {
	// Rates are the offered flow arrival rates (flows per time unit).
	Rates []float64
	// ExtraBranches widens each flow (5 + ExtraBranches subtasks).
	ExtraBranches int
	// MeanDeadline is the mean end-to-end deadline of a flow; actual
	// deadlines are uniform in ±50%.
	MeanDeadline float64
	Horizon      float64
	Warmup       float64
	Seed         int64
}

// DefaultDataFlow returns the default sweep.
func DefaultDataFlow() DataFlowConfig {
	return DataFlowConfig{
		Rates:         []float64{0.4, 0.8, 1.2, 1.6},
		ExtraBranches: 1, // six subtasks, the top of the paper's 4-6 range
		MeanDeadline:  60,
		Horizon:       4000,
		Warmup:        400,
		Seed:          17,
	}
}

// DataFlow runs the §5 data-flow scenario: randomized sensor flows
// (ingest → parallel analyses → fuse → display) offered at increasing
// rates to a Theorem 2 admission controller over five resources. The
// properties to reproduce: zero deadline misses among admitted flows at
// every rate, with acceptance degrading gracefully as offered load
// passes the region's capacity.
func DataFlow(cfg DataFlowConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: §5 data-flow architecture — Theorem 2 admission of branching/rejoining sensor flows",
		Header: []string{"offered flows/s", "accepted", "bottleneck util", "miss ratio", "mean response"},
	}
	spec := workload.DefaultSensorFlow()
	spec.ExtraBranches = cfg.ExtraBranches
	for _, rate := range cfg.Rates {
		sim := des.New()
		gs := pipeline.NewGraphSystem(sim, pipeline.GraphOptions{Resources: 5})
		g := dist.NewRNG(cfg.Seed)
		offered, accepted := 0, 0
		at := 0.0
		var id task.ID
		for {
			at += g.ExpFloat64() / rate
			if at > cfg.Horizon {
				break
			}
			releaseAt := at
			flowID := id
			id++
			flow := spec.Build(g)
			deadline := cfg.MeanDeadline * (0.5 + g.Float64())
			sim.At(releaseAt, func() {
				offered++
				if gs.Offer(&task.Task{ID: flowID, Arrival: releaseAt, Deadline: deadline, Graph: flow}) {
					accepted++
				}
			})
		}
		m := measure(sim, gs, cfg.Warmup, cfg.Horizon)

		t.AddRow(
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.1f%%", 100*float64(accepted)/float64(offered)),
			fmt.Sprintf("%.3f", m.BottleneckUtilization),
			fmt.Sprintf("%.5f", m.MissRatio),
			fmt.Sprintf("%.2f", m.ResponseTimes.Mean()),
		)
	}
	return t
}
