package feasregion_test

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	feasregion "feasregion"
	"feasregion/internal/analysis"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/experiments"
	"feasregion/internal/online"
	"feasregion/internal/sched"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// Benchmarks, one per paper table/figure plus the paper's complexity
// claims. Figure benches run a reduced-scale sweep per iteration and
// report the headline metric via b.ReportMetric so `go test -bench`
// regenerates the result; cmd/experiments produces the full tables.

// benchScale keeps per-iteration cost moderate.
var benchScale = experiments.Scale{Horizon: 600, Warmup: 100, Replications: 1}

// BenchmarkFig4PipelineLength regenerates Figure 4's headline point: the
// real stage utilization at 100% input load, for 1- and 5-stage
// pipelines (reported as util_n1 and util_n5 — near-equal values are the
// paper's "pipeline length does not hurt" claim).
func BenchmarkFig4PipelineLength(b *testing.B) {
	cfg := experiments.Fig4Config{
		Loads:      []float64{1.0},
		Lengths:    []int{1, 5},
		Resolution: 50,
		Scale:      benchScale,
		Seed:       1,
	}
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = experiments.Fig4(cfg)
	}
	b.ReportMetric(res.Util[1][0], "util_n1")
	b.ReportMetric(res.Util[5][0], "util_n5")
}

// BenchmarkFig5TaskResolution regenerates Figure 5's spread: accepted
// utilization at resolution 2 vs 100 under 200% load.
func BenchmarkFig5TaskResolution(b *testing.B) {
	cfg := experiments.Fig5Config{
		Resolutions: []float64{2, 100},
		Loads:       []float64{2.0},
		Scale:       benchScale,
		Seed:        2,
	}
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = experiments.Fig5(cfg)
	}
	b.ReportMetric(res.Util[0][0], "util_res2")
	b.ReportMetric(res.Util[0][1], "util_res100")
}

// BenchmarkFig6LoadImbalance regenerates Figure 6's contrast: bottleneck
// utilization balanced vs 8:1 imbalanced.
func BenchmarkFig6LoadImbalance(b *testing.B) {
	cfg := experiments.Fig6Config{
		Ratios:     []float64{1, 8},
		Load:       1.2,
		Resolution: 50,
		Scale:      benchScale,
		Seed:       3,
	}
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = experiments.Fig6(cfg)
	}
	b.ReportMetric(res.Bottleneck[0], "util_balanced")
	b.ReportMetric(res.Bottleneck[1], "util_imbalanced8x")
}

// BenchmarkFig7ApproximateAdmission regenerates Figure 7's headline: the
// miss ratio under mean-based admission at high resolution (≈0) and at
// coarse resolution.
func BenchmarkFig7ApproximateAdmission(b *testing.B) {
	cfg := experiments.Fig7Config{
		Resolutions: []float64{2, 100},
		Loads:       []float64{2.0},
		Scale:       benchScale,
		Seed:        4,
	}
	var res experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = experiments.Fig7(cfg)
	}
	b.ReportMetric(res.MissRatio[0][0], "miss_res2")
	b.ReportMetric(res.MissRatio[0][1], "miss_res100")
}

// BenchmarkTable1TSCE regenerates the §5 simulation at the paper's
// operating point: 550 tracks alongside the certified critical tasks,
// reporting stage-1 utilization (paper: ≈0.95) and rejections (0).
func BenchmarkTable1TSCE(b *testing.B) {
	cfg := experiments.Table1Config{
		Tracks:  []int{550},
		Horizon: 10,
		Warmup:  2,
		Seed:    5,
	}
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = experiments.Table1TrackCapacity(cfg)
	}
	b.ReportMetric(res.Points[0].Stage1Util, "stage1_util")
	b.ReportMetric(float64(res.Points[0].TimedOut), "rejected")
	b.ReportMetric(float64(res.Points[0].Missed), "missed")
}

// BenchmarkAblationIdleReset contrasts admitted utilization with and
// without the idle reset at 150% load.
func BenchmarkAblationIdleReset(b *testing.B) {
	spec := workload.PipelineSpec{Stages: 2, Load: 1.5, MeanDemand: 1, Resolution: 50}
	run := func(disable bool, seed int64) float64 {
		pt := experiments.RunPipelinePoint(spec, func(*des.Simulator, int, int64) experiments.Replication {
			return experiments.Replication{Opts: feasregion.PipelineOptions{Stages: 2, DisableIdleReset: disable}}
		}, benchScale, seed)
		return pt.MeanUtil.Mean
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false, int64(i+1))
		without = run(true, int64(i+1))
	}
	b.ReportMetric(with, "util_with_reset")
	b.ReportMetric(without, "util_without_reset")
}

// BenchmarkAdmissionDecisionTaskCount validates the O(N) complexity
// claim: the cost of one admission decision must not grow with the
// number of active tasks in the system (here 10 → 100 000).
func BenchmarkAdmissionDecisionTaskCount(b *testing.B) {
	for _, active := range []int{10, 1_000, 100_000} {
		b.Run(benchName("active", active), func(b *testing.B) {
			sim := des.New()
			c := core.NewController(sim, core.NewRegion(3), nil)
			// Preload the ledgers with `active` tiny tasks.
			for i := 0; i < active; i++ {
				if !c.TryAdmit(task.Chain(task.ID(i), 0, 1e9, 1, 1, 1)) {
					b.Fatal("preload rejected")
				}
			}
			probe := task.Chain(task.ID(active+1), 0, 100, 0.1, 0.1, 0.1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.WouldAdmit(probe)
			}
		})
	}
}

// BenchmarkAdmissionDecisionStages shows the admission test is linear in
// the number of stages (the N of O(N)).
func BenchmarkAdmissionDecisionStages(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(benchName("stages", n), func(b *testing.B) {
			sim := des.New()
			c := core.NewController(sim, core.NewRegion(n), nil)
			demands := make([]float64, n)
			for j := range demands {
				demands[j] = 0.01
			}
			probe := task.Chain(1, 0, 100, demands...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.WouldAdmit(probe)
			}
		})
	}
}

// BenchmarkRegionEvaluation measures the closed-form region math.
func BenchmarkRegionEvaluation(b *testing.B) {
	r := core.NewRegion(8)
	utils := []float64{0.1, 0.05, 0.12, 0.08, 0.02, 0.11, 0.06, 0.04}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Contains(utils) {
			b.Fatal("point should be inside")
		}
	}
}

// BenchmarkGraphAdmission measures one Theorem 2 admission decision on
// the Figure 3 graph.
func BenchmarkGraphAdmission(b *testing.B) {
	sim := des.New()
	c := core.NewGraphController(sim, 4, 1, nil)
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(0.1))
	n2 := g.AddNode(1, task.NewSubtask(0.1))
	n3 := g.AddNode(2, task.NewSubtask(0.1))
	n4 := g.AddNode(3, task.NewSubtask(0.1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)
	probe := &task.Task{ID: 1, Deadline: 100, Graph: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WouldAdmit(probe)
	}
}

// BenchmarkSimulatorThroughput measures raw pipeline-simulation speed in
// simulated tasks per benchmark iteration (fixed workload).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := workload.PipelineSpec{Stages: 3, Load: 1.0, MeanDemand: 1, Resolution: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		p := feasregion.NewPipeline(sim, feasregion.PipelineOptions{Stages: 3})
		src := workload.NewSource(sim, spec, int64(i+1), 500, func(tk *task.Task) { p.Offer(tk) })
		sim.At(0, func() { p.BeginMeasurement() })
		src.Start()
		sim.Run()
	}
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return prefix + "-" + strconv.Itoa(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return prefix + "-" + strconv.Itoa(n/1_000) + "k"
	default:
		return prefix + "-" + strconv.Itoa(n)
	}
}

// BenchmarkAdmitExpireChurn measures the simulated-time controller's
// full per-task bookkeeping at a steady population of active tasks: each
// op admits one 3-stage task (test and commit) and advances the clock
// one unit, firing one deadline expiry. BenchmarkAdmissionDecisionTaskCount
// times the test alone; this adds the commit and the expiry, the part
// that touches the task table.
func BenchmarkAdmitExpireChurn(b *testing.B) {
	for _, active := range []int{1_000, 100_000} {
		b.Run(benchName("active", active), func(b *testing.B) {
			sim := des.New()
			c := core.NewController(sim, core.NewRegion(3), nil)
			// Every task lives `active` time units and contributes
			// 0.1/active per stage, so the population holds at `active`
			// with U_j = 0.1.
			tk := task.Chain(0, 0, float64(active), 0.1, 0.1, 0.1)
			id := task.ID(0)
			step := func() {
				tk.ID, tk.Arrival = id, sim.Now()
				if !c.TryAdmit(tk) {
					b.Fatalf("task %d rejected at U = %v", id, c.Utilizations())
				}
				id++
				sim.RunUntil(sim.Now() + 1)
			}
			for i := 0; i < active; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkOnlineControllerParallel measures the wall-clock controller
// under concurrent admission from all cores.
func BenchmarkOnlineControllerParallel(b *testing.B) {
	c := online.New(core.NewRegion(3), nil, nil)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := ids.Add(1)
			if c.TryAdmit(online.Request{
				ID:       id,
				Deadline: 10 * time.Millisecond,
				Demands:  []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond},
			}) {
				c.Release(id)
			}
		}
	})
}

// BenchmarkStageScheduler measures raw submit->complete throughput of
// the preemptive stage scheduler.
func BenchmarkStageScheduler(b *testing.B) {
	sim := des.New()
	st := sched.New(sim, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(task.ID(i), float64(i%7), task.NewSubtask(0.001), nil)
		sim.Run()
	}
}

// BenchmarkHolisticRTA measures the offline comparator on a 20-task,
// 3-stage set — the cost the paper's O(N) online test avoids.
func BenchmarkHolisticRTA(b *testing.B) {
	g := dist.NewRNG(1)
	set := make([]analysis.SporadicTask, 20)
	for i := range set {
		period := 10 + g.Float64()*190
		set[i] = analysis.SporadicTask{
			Name: "t", Period: period, Deadline: period, Priority: period,
			Demands: []float64{period * 0.01, period * 0.01, period * 0.01},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.HolisticRTA(3, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESEventThroughput measures the raw event-calendar rate.
func BenchmarkDESEventThroughput(b *testing.B) {
	sim := des.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			sim.After(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.After(1, tick)
	sim.Run()
}

// BenchmarkWaitQueueAdmission measures one hold-queue submission cycle
// (the §5 admission path with the 200 ms hold).
func BenchmarkWaitQueueAdmission(b *testing.B) {
	sim := des.New()
	c := core.NewController(sim, core.NewRegion(2), nil)
	w := core.NewWaitQueue(sim, c, 0.2, func(*task.Task) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := task.ID(i)
		w.Submit(task.Chain(id, sim.Now(), 1e9, 0.001, 0.001))
		c.Evict(id) // keep the ledger from saturating
	}
}

// BenchmarkSheddingDecision measures an admission that must plan and
// execute shedding of lower-importance work.
func BenchmarkSheddingDecision(b *testing.B) {
	sim := des.New()
	p := feasregion.NewPipeline(sim, feasregion.PipelineOptions{Stages: 1, EnableShedding: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		low := task.Chain(task.ID(2*i), sim.Now(), 1e9, 4e8) // fills ~0.4
		low.Importance = 1
		p.Offer(low)
		hi := task.Chain(task.ID(2*i+1), sim.Now(), 1e9, 4e8)
		hi.Importance = 9
		if !p.Offer(hi) { // must shed `low`
			b.Fatal("shedding admission failed")
		}
		p.Controller().Evict(hi.ID)
		sim.Run() // drain executions
	}
}
