package feasregion_test

import (
	"bytes"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/pipeline"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// replayRecords is BenchmarkPipelineReplay's trace size.
const replayRecords = 20_000

// BenchmarkPipelineReplay replays a 20k-record scenario trace through
// the full simulated pipeline with a metrics registry: region
// admission, deadline-monotonic stages, departures, idle reset and
// metrics, the end-to-end benchmark's sim-pipeline stack at 12× load.
// One op is one replay. The replayer offers one reused task and the
// pipeline copies what it keeps, so the allocations (about 0.8 MB/op)
// are the per-replay set-up: the simulator, pipeline, registry and
// trace reader. Run it with -cpuprofile to profile the whole simulated
// data path.
func BenchmarkPipelineReplay(b *testing.B) {
	const day = 1e4
	sc := &workload.Scenario{
		Stages:     3,
		MeanDemand: 1.0 / 3,
		Curve:      []workload.RatePoint{{At: 0, Rate: 0.3}, {At: day / 2, Rate: 0.7}, {At: day, Rate: 0.3}},
		Cohorts: []workload.Cohort{
			{Name: "interactive", Share: 0.6, DemandScale: 0.7, Resolution: 120},
			{Name: "batch", Share: 0.3, DemandScale: 1.5, Resolution: 400},
			{Name: "control", Share: 0.1, DemandScale: 0.4, Resolution: 40},
		},
		Crowds:  []workload.FlashCrowd{{Start: day / 4, Duration: day / 20, Multiplier: 1.8}},
		Horizon: 1.05 * replayRecords / 0.3, // at least replayRecords arrivals
		Seed:    42,
	}
	var trace bytes.Buffer
	if _, err := sc.RecordTrace(&trace); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		p := pipeline.New(sim, pipeline.Options{Stages: 3, Metrics: metrics.NewRegistry()})
		p.BeginMeasurement()
		tr, err := workload.OpenTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		rp, err := workload.NewReplayer(sim, tr, workload.ReplayOptions{RateMultiplier: 12, Limit: replayRecords},
			func(t *task.Task) { p.Offer(t) })
		if err != nil {
			b.Fatal(err)
		}
		if err := rp.Start(); err != nil {
			b.Fatal(err)
		}
		sim.Run()
		if rp.Replayed() != replayRecords || rp.Err() != nil {
			b.Fatalf("replayed %d of %d records: %v", rp.Replayed(), replayRecords, rp.Err())
		}
	}
	b.ReportMetric(float64(b.N*replayRecords)/b.Elapsed().Seconds(), "arrivals/s")
}
