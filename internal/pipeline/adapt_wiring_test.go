package pipeline

import (
	"reflect"
	"testing"

	"feasregion/internal/adapt"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// adaptTestConfig enables all three estimators with thresholds low
// enough for a short simulated run to move them.
func adaptTestConfig() *adapt.Config {
	return &adapt.Config{
		DeadlineRef: 60, // spec below: Resolution 20 × 3 stages × mean demand 1
		Beta:        adapt.BetaConfig{Enabled: true, MinSamples: 10},
		Alpha:       adapt.AlphaConfig{Enabled: true, MinSamples: 10},
		Demand:      adapt.DemandConfig{Enabled: true, MinSamples: 5},
	}
}

// runAdaptScenario builds an adapt-enabled pipeline (reg may be nil),
// feeds it an honest and a lying workload class with a stage-1 slowdown
// in the middle, and runs it to completion.
func runAdaptScenario(t *testing.T, reg *metrics.Registry) *Pipeline {
	t.Helper()
	const (
		horizon = 600.0
		liarLo  = task.ID(1_000_000) // liar-class tasks live in [liarLo, ∞)
	)
	sim := des.New()
	inj := faults.New(faults.Config{
		Stages:       3,
		Horizon:      horizon,
		LiarFraction: 1,
		LiarFactor:   2.5,
		LiarFilter:   func(id task.ID) bool { return id >= liarLo },
		SlowWindows:  []faults.SlowWindow{{Stage: 1, Start: 200, Duration: 150, Factor: 3}},
	}, 7)
	p := New(sim, Options{
		Stages:        3,
		Metrics:       reg,
		Faults:        inj,
		OverrunPolicy: core.OverrunRecharge,
		Adapt:         adaptTestConfig(),
	})
	if p.AdaptLoop() == nil {
		t.Fatal("Options.Adapt set but AdaptLoop() is nil")
	}

	spec := workload.PipelineSpec{Stages: 3, Load: 0.4, MeanDemand: 1, Resolution: 20}
	honest := workload.NewSource(sim, spec, 42, horizon, func(tk *task.Task) {
		tk.Class = "honest"
		p.Offer(tk)
	})
	liars := workload.NewSource(sim, spec, 43, horizon, func(tk *task.Task) {
		tk.Class = "liar"
		p.Offer(tk)
	})
	liars.SetFirstID(liarLo)
	p.AdaptLoop().ScheduleSim(sim, 20, horizon)
	honest.Start()
	liars.Start()
	sim.Run()
	return p
}

// End-to-end adapt wiring: a pipeline with Options.Adapt set, fed by an
// honest and a lying workload class, must (a) drive the loop from its
// own telemetry, (b) inflate the lying class's demand estimate and not
// the honest one's, and (c) push region updates into the controller it
// admits with.
func TestPipelineAdaptWiring(t *testing.T) {
	p := runAdaptScenario(t, metrics.NewRegistry())
	base := core.NewRegion(3)
	snap := p.AdaptLoop().Snapshot()
	if snap.Ticks == 0 {
		t.Fatal("adapt loop never ticked")
	}
	liarInfl := p.AdaptLoop().ClassInflation("liar")
	honestInfl := p.AdaptLoop().ClassInflation("honest")
	if liarInfl <= 1 {
		t.Errorf("liar-class inflation %v, want > 1 (every liar task overran)", liarInfl)
	}
	if honestInfl >= liarInfl {
		t.Errorf("honest-class inflation %v not below liar-class %v", honestInfl, liarInfl)
	}

	// Region updates must land in the controller the pipeline admits
	// with, and only ever shrink the base region (soundness).
	got := p.Controller().Region()
	if got.Alpha != snap.Alpha {
		t.Errorf("controller α = %v, loop α = %v — updates not wired through", got.Alpha, snap.Alpha)
	}
	if got.Alpha > base.Alpha+1e-12 {
		t.Errorf("adaptive α %v exceeds base %v", got.Alpha, base.Alpha)
	}
	for j, b := range got.Betas {
		baseBeta := 0.0 // NewRegion leaves Betas nil: implicit zeros
		if j < len(base.Betas) {
			baseBeta = base.Betas[j]
		}
		if b < baseBeta-1e-12 {
			t.Errorf("adaptive β[%d] = %v below base %v", j, b, baseBeta)
		}
	}
	if got.Bound() > base.Bound()+1e-12 {
		t.Errorf("adaptive bound %v exceeds base %v", got.Bound(), base.Bound())
	}

	// The per-class admission denominators the estimator consumed.
	entered := p.EnteredByClass()
	if entered["honest"] == 0 || entered["liar"] == 0 {
		t.Fatalf("expected both classes to enter service, got %v", entered)
	}
}

// The β/α estimators read the stages' own tallies, so a metrics
// registry is an export, not an input: the same run without one makes
// the same region updates.
func TestPipelineAdaptWithoutMetrics(t *testing.T) {
	with := runAdaptScenario(t, metrics.NewRegistry())
	without := runAdaptScenario(t, nil)
	ws, wos := with.AdaptLoop().Snapshot(), without.AdaptLoop().Snapshot()
	if ws.RegionUpdates == 0 {
		t.Fatalf("adapt loop made no region updates: %+v", ws)
	}
	if !reflect.DeepEqual(ws, wos) {
		t.Fatalf("adapt loop without metrics diverged:\n with    %+v\n without %+v", ws, wos)
	}
	if !reflect.DeepEqual(with.Controller().Region(), without.Controller().Region()) {
		t.Fatalf("controller regions diverged: %+v vs %+v", with.Controller().Region(), without.Controller().Region())
	}
}
