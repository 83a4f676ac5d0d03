package experiments

import (
	"feasregion/internal/des"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// Scale sizes the simulation runs. Horizon and Warmup are in simulated
// time units with the mean per-stage demand normalized to 1 (so a
// horizon of 4000 processes roughly 4000·load tasks per stage).
type Scale struct {
	Horizon      float64
	Warmup       float64
	Replications int
}

// Full is the publication-quality scale used by cmd/experiments. The
// horizon spans many mean deadlines even at resolution 100 so the
// synthetic-utilization ledger reaches steady state well before the
// measurement window ends.
var Full = Scale{Horizon: 6000, Warmup: 800, Replications: 3}

// Quick is a reduced scale for tests and benchmarks.
var Quick = Scale{Horizon: 1000, Warmup: 150, Replications: 1}

// Point aggregates one parameter point across replications.
type Point struct {
	MeanUtil       stats.Summary
	BottleneckUtil stats.Summary
	MissRatio      stats.Summary
	AcceptRatio    stats.Summary
	MeanResponse   stats.Summary
	Completed      uint64
	Missed         uint64
}

// Replication is one replication of a RunPipelinePoint run: what it
// changes from the paper's default run.
type Replication struct {
	// Opts configures the replication's pipeline.
	Opts pipeline.Options
	// Source, if set, builds the arrivals offered to p. Nil offers a
	// Poisson stream (workload.NewSource) over the point's spec.
	Source func(p *pipeline.Pipeline) *workload.Source
	// Done, if set, reads the replication once its calendar has drained,
	// given its window metrics.
	Done func(m pipeline.Metrics)
}

// Builder builds replication r, seeded with seed, against the
// simulator it runs on.
type Builder func(sim *des.Simulator, r int, seed int64) Replication

// RunPipelinePoint simulates one workload/pipeline configuration at the
// given scale. Replication r runs on its own simulator with seed
// seed + r·9973, and is measured over [sc.Warmup, sc.Horizon].
func RunPipelinePoint(spec workload.PipelineSpec, build Builder, sc Scale, seed int64) Point {
	var utils, bottles, misses, accepts, resp []float64
	var completed, missed uint64
	reps := max(sc.Replications, 1)
	for r := 0; r < reps; r++ {
		sim := des.New()
		rseed := seed + int64(r)*9973
		rep := build(sim, r, rseed)
		p := pipeline.New(sim, rep.Opts)
		var src *workload.Source
		if rep.Source != nil {
			src = rep.Source(p)
		} else {
			src = workload.NewSource(sim, spec, rseed, sc.Horizon, func(tk *task.Task) { p.Offer(tk) })
		}
		m := measure(sim, p, sc.Warmup, sc.Horizon, src.Start)
		if rep.Done != nil {
			rep.Done(m)
		}
		utils = append(utils, m.MeanUtilization)
		bottles = append(bottles, m.BottleneckUtilization)
		misses = append(misses, m.MissRatio)
		accepts = append(accepts, m.AcceptRatio)
		resp = append(resp, m.ResponseTimes.Mean())
		completed += m.Completed
		missed += m.Missed
	}
	return Point{
		MeanUtil:       stats.Summarize(utils),
		BottleneckUtil: stats.Summarize(bottles),
		MissRatio:      stats.Summarize(misses),
		AcceptRatio:    stats.Summarize(accepts),
		MeanResponse:   stats.Summarize(resp),
		Completed:      completed,
		Missed:         missed,
	}
}

// paperSpec is the §4 synthetic workload with the paper's mean
// per-stage demand of 1 at the given stage count, offered load and
// resolution.
func paperSpec(stages int, load, resolution float64) workload.PipelineSpec {
	return workload.PipelineSpec{Stages: stages, Load: load, MeanDemand: 1, Resolution: resolution}
}

// measure runs sim with sys measured over [warmup, horizon]: it
// schedules sys's BeginMeasurement at warmup and its Snapshot at
// horizon, in that order and after whatever the caller has already
// scheduled, calls start (the arrival sources) and runs the calendar
// until it drains. It returns the snapshot taken at the horizon, so the
// utilization window covers the steady state only.
func measure[M any](sim *des.Simulator, sys interface {
	BeginMeasurement()
	Snapshot() M
}, warmup, horizon float64, start ...func()) M {
	sim.At(warmup, sys.BeginMeasurement)
	var m M
	sim.At(horizon, func() { m = sys.Snapshot() })
	for _, f := range start {
		f()
	}
	sim.Run()
	return m
}

// withOpts is the Builder of replications that differ from the paper's
// default run only in their pipeline options. The options are shared by
// every replication, so they must hold no per-run state (an RNG, an
// admitter bound to one simulator).
func withOpts(opts pipeline.Options) Builder {
	return func(*des.Simulator, int, int64) Replication { return Replication{Opts: opts} }
}

// defaultOpts returns the paper's default pipeline configuration
// (deadline-monotonic, exact admission against Eq. 13).
func defaultOpts(stages int) Builder {
	return withOpts(pipeline.Options{Stages: stages})
}
