package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// replicaPipeline is a one-replica fleet whose online controller runs on
// the simulated clock: the production wall-clock data plane — exact
// test, lock-free gate, expiry wheel — under a reproducible workload.
// Its one pipeline is replica 0's.
func replicaPipeline(sim *des.Simulator, stages int) *Pipeline {
	return NewCluster(sim, ClusterOptions{Stages: stages}).Pipe(0)
}

// TestShardedPipelineSoundness runs the paper's headline property
// through the wall-clock controller of a cluster replica driven by the
// simulated clock: no admitted task misses its end-to-end deadline, at
// any offered load.
func TestShardedPipelineSoundness(t *testing.T) {
	cases := []struct {
		stages int
		load   float64
		seed   int64
	}{
		{2, 1.0, 3},
		{3, 1.6, 6},
		{5, 2.0, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run("", func(t *testing.T) {
			t.Parallel()
			spec := workload.PipelineSpec{
				Stages:     tc.stages,
				Load:       tc.load,
				MeanDemand: 1,
				Resolution: 30,
			}
			sim := des.New()
			p := replicaPipeline(sim, tc.stages)
			src := workload.NewSource(sim, spec, tc.seed, 800, func(tk *task.Task) { p.Offer(tk) })
			sim.At(0, func() { p.BeginMeasurement() })
			src.Start()
			sim.Run()
			m := p.Snapshot()
			if m.Completed == 0 {
				t.Fatalf("no tasks completed (offered %d)", m.Offered)
			}
			if m.Missed != 0 {
				t.Fatalf("stages=%d load=%v: %d of %d admitted tasks missed deadlines",
					tc.stages, tc.load, m.Missed, m.Completed)
			}
			if m.AcceptRatio >= 1 && tc.load > 1 {
				t.Fatalf("overload never rejected; the replica is not gating (metrics %+v)", m)
			}
		})
	}
}

// TestShardedPipelineMatchesDefaultThroughput compares admitted volume
// between the default exact sim-time controller and a cluster replica's
// wall-clock controller on the same workload: the replica purges
// expiries on a 1 ms wheel rather than at exact deadlines, so it may
// admit marginally fewer tasks, but the two must agree closely — a gap
// would mean the wall-clock plane is rejecting feasible work.
func TestShardedPipelineMatchesDefaultThroughput(t *testing.T) {
	run := func(replica bool) (completed, offered uint64) {
		spec := workload.PipelineSpec{Stages: 3, Load: 1.4, MeanDemand: 1, Resolution: 25}
		sim := des.New()
		p := New(sim, Options{Stages: 3})
		if replica {
			p = replicaPipeline(sim, 3)
		}
		src := workload.NewSource(sim, spec, 42, 600, func(tk *task.Task) { p.Offer(tk) })
		sim.At(0, func() { p.BeginMeasurement() })
		src.Start()
		sim.Run()
		m := p.Snapshot()
		return m.Completed, m.Offered
	}
	base, offered := run(false)
	replicaC, offered2 := run(true)
	if offered != offered2 {
		t.Fatalf("generator not deterministic: %d vs %d offered", offered, offered2)
	}
	lo, hi := float64(base)*0.95, float64(base)*1.05
	if f := float64(replicaC); f < lo || f > hi {
		t.Fatalf("replica pipeline completed %d vs default %d (offered %d); beyond 5%% of the exact controller",
			replicaC, base, offered)
	}
}
