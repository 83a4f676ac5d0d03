package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// shardedReplica is a one-replica fleet whose online controller splits
// admission across shards (internal/shard) on the simulated clock: the
// production wall-clock data plane — caps, steals, gate, global pass —
// under a reproducible workload. Its one pipeline is replica 0's.
func shardedReplica(sim *des.Simulator, stages, shards int) *Pipeline {
	return NewCluster(sim, ClusterOptions{Stages: stages, Shards: shards}).Pipe(0)
}

// TestShardedPipelineSoundness runs the paper's headline property
// through the sharded wall-clock controller driven by the simulated
// clock: with Shards > 1 doing exact feasible-region admission, no
// admitted task misses its end-to-end deadline, at any offered load.
func TestShardedPipelineSoundness(t *testing.T) {
	cases := []struct {
		stages int
		shards int
		load   float64
		seed   int64
	}{
		{2, 4, 1.0, 3},
		{3, 8, 1.6, 6},
		{5, 4, 2.0, 8},
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
			p := shardedReplica(sim, tc.stages, tc.shards)
			src := workload.NewSource(sim, spec, tc.seed, 800, func(tk *task.Task) { p.Offer(tk) })
			sim.At(0, func() { p.BeginMeasurement() })
			src.Start()
			sim.Run()
			m := p.Snapshot()
			if m.Completed == 0 {
				t.Fatalf("no tasks completed (offered %d)", m.Offered)
			}
			if m.Missed != 0 {
				t.Fatalf("stages=%d shards=%d load=%v: %d of %d admitted tasks missed deadlines",
					tc.stages, tc.shards, tc.load, m.Missed, m.Completed)
			}
			if m.AcceptRatio >= 1 && tc.load > 1 {
				t.Fatalf("overload never rejected; sharded admitter is not gating (metrics %+v)", m)
			}
		})
	}
}

// TestShardedPipelineMatchesDefaultThroughput compares admitted volume
// between the default exact sim-time controller and the sharded
// wall-clock controller on the same workload: the sharded path purges
// expiries on a 1 ms wheel rather than at exact deadlines, so it may
// admit marginally fewer tasks, but the two must agree closely — a gap
// would mean the shard partition is rejecting feasible work.
func TestShardedPipelineMatchesDefaultThroughput(t *testing.T) {
	run := func(shards int) (completed, offered uint64) {
		spec := workload.PipelineSpec{Stages: 3, Load: 1.4, MeanDemand: 1, Resolution: 25}
		sim := des.New()
		p := New(sim, Options{Stages: 3})
		if shards > 1 {
			p = shardedReplica(sim, 3, shards)
		}
		src := workload.NewSource(sim, spec, 42, 600, func(tk *task.Task) { p.Offer(tk) })
		sim.At(0, func() { p.BeginMeasurement() })
		src.Start()
		sim.Run()
		m := p.Snapshot()
		return m.Completed, m.Offered
	}
	base, offered := run(1)
	shardedC, offered2 := run(8)
	if offered != offered2 {
		t.Fatalf("generator not deterministic: %d vs %d offered", offered, offered2)
	}
	lo, hi := float64(base)*0.95, float64(base)*1.05
	if f := float64(shardedC); f < lo || f > hi {
		t.Fatalf("sharded pipeline completed %d vs default %d (offered %d); beyond 5%% of the exact controller",
			shardedC, base, offered)
	}
}
