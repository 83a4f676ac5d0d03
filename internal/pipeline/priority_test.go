package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/priority"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// offerMixedSpan drives a seeded mixed-span aperiodic stream into the
// pipeline: an interactive class touching only stage 0 under a tight
// deadline and a batch class touching the remaining stages under a
// loose one. Partial spans plus heterogeneous deadlines are exactly the
// workloads where the per-task OPA test widens past the global region
// (THEORY.md §9), and zero-demand stages exercise the advance-skip
// path under the priority admitter.
func offerMixedSpan(sim *des.Simulator, p *Pipeline, seed int64, n int, rate float64) {
	g := dist.NewRNG(seed)
	now := 0.0
	for i := 0; i < n; i++ {
		now += g.ExpFloat64() / rate
		demands := make([]float64, p.Stages())
		var dl float64
		if g.Float64() < 0.5 {
			demands[0] = 0.25 * g.ExpFloat64()
			dl = 0.8 + 0.4*g.Float64()
		} else {
			for j := 1; j < len(demands); j++ {
				demands[j] = 0.6 * g.ExpFloat64()
			}
			dl = 8 * (0.75 + 0.5*g.Float64())
		}
		tk := task.Chain(task.ID(i+1), now, dl, demands...)
		sim.At(des.Time(now), func() { p.Offer(tk) })
	}
}

// opaOptions runs the pipeline under the online OPA admitter.
func opaOptions(stages int) Options {
	return Options{Stages: stages, Admitter: priority.NewAdmitter(stages, priority.ModeOPA, nil, nil)}
}

// TestPriorityOPAZeroMisses is the soundness half of the widening
// claim: under the online OPA admitter every admitted task still meets its
// end-to-end deadline — on full-span suite workloads and on the
// mixed-span streams where OPA admits beyond the global region.
func TestPriorityOPAZeroMisses(t *testing.T) {
	t.Run("full-span-suite", func(t *testing.T) {
		for _, tc := range []struct {
			stages     int
			load       float64
			resolution float64
			seed       int64
		}{
			{1, 1.5, 10, 21},
			{2, 1.0, 50, 22},
			{3, 1.6, 8, 23},
			{5, 2.0, 20, 24},
		} {
			spec := workload.PipelineSpec{
				Stages:     tc.stages,
				Load:       tc.load,
				MeanDemand: 1,
				Resolution: tc.resolution,
			}
			sim := des.New()
			p := New(sim, opaOptions(tc.stages))
			src := workload.NewSource(sim, spec, tc.seed, 1500, func(tk *task.Task) { p.Offer(tk) })
			sim.At(0, func() { p.BeginMeasurement() })
			src.Start()
			sim.Run()
			m := p.Snapshot()
			if m.Completed == 0 {
				t.Fatalf("stages=%d load=%v: no tasks completed (offered %d)", tc.stages, tc.load, m.Offered)
			}
			if m.Missed != 0 {
				t.Fatalf("stages=%d load=%v res=%v: %d of %d admitted tasks missed deadlines under OPA",
					tc.stages, tc.load, tc.resolution, m.Missed, m.Completed)
			}
		}
	})
	t.Run("mixed-span", func(t *testing.T) {
		for _, seed := range []int64{3, 17, 99} {
			for _, rate := range []float64{1.0, 2.0, 4.0} {
				sim := des.New()
				p := New(sim, opaOptions(3))
				sim.At(0, func() { p.BeginMeasurement() })
				offerMixedSpan(sim, p, seed, 1200, rate)
				sim.Run()
				m := p.Snapshot()
				if m.Completed == 0 {
					t.Fatalf("seed=%d rate=%v: no tasks completed", seed, rate)
				}
				if m.Missed != 0 {
					t.Fatalf("seed=%d rate=%v: %d of %d admitted mixed-span tasks missed deadlines",
						seed, rate, m.Missed, m.Completed)
				}
			}
		}
	})
}

// TestPriorityOPAWidensOverDefault: on a shared mixed-span arrival
// sequence, the OPA pipeline serves strictly more tasks to completion
// than the default global-region pipeline — and both stay at zero
// misses, so the extra admissions are free, not bought with deadline
// debt. Deterministic: seeded stream, seeded simulators.
func TestPriorityOPAWidensOverDefault(t *testing.T) {
	run := func(opts Options) Metrics {
		sim := des.New()
		p := New(sim, opts)
		sim.At(0, func() { p.BeginMeasurement() })
		offerMixedSpan(sim, p, 7, 1500, 2.0)
		sim.Run()
		return p.Snapshot()
	}
	dm := run(Options{Stages: 3})
	opa := run(opaOptions(3))
	if dm.Missed != 0 || opa.Missed != 0 {
		t.Fatalf("soundness violated: dm missed %d, opa missed %d", dm.Missed, opa.Missed)
	}
	if opa.EnteredService <= dm.EnteredService {
		t.Fatalf("OPA admitted %d, default global region admitted %d; expected strict widening on a mixed-span stream",
			opa.EnteredService, dm.EnteredService)
	}
}
