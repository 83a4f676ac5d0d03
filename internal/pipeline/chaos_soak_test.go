package pipeline

import (
	"math"
	"testing"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/task"
	"feasregion/internal/trace"
	"feasregion/internal/workload"
)

// chaosRun executes one seeded fault schedule against a 3-stage pipeline
// and returns the trace, final metrics, controller, and injector for
// inspection. The fault mix is controlled by cfg; the workload and
// pipeline configuration are fixed so guarded and unguarded runs differ
// only in policy.
func chaosRun(t *testing.T, seed int64, cfg faults.Config, policy core.OverrunPolicy) (*trace.Recorder, Metrics, *Pipeline, *faults.Injector) {
	t.Helper()
	const horizon = 400.0
	cfg.Stages = 3
	cfg.Horizon = horizon
	inj := faults.New(cfg, seed)
	sim := des.New()
	rec := trace.New(0)
	p := New(sim, Options{
		Stages:        3,
		OverrunPolicy: policy,
		Faults:        inj,
		Trace:         rec,
	})
	// Ledger invariants must hold after every fault event: utilization
	// stays finite and never drops below the (zero) reserved floor.
	p.Controller().OnUtilizationChange(func(stage int, now des.Time, u float64) {
		if u < -1e-9 || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Errorf("seed %d: stage %d utilization %v at t=%v violates the ledger invariant", seed, stage, u, now)
		}
	})
	spec := workload.PipelineSpec{Stages: 3, Load: 1.5, MeanDemand: 1, Resolution: 20}
	src := workload.NewSource(sim, spec, seed*7919+1, horizon, func(tk *task.Task) { p.Offer(tk) })
	sim.At(0, func() { p.BeginMeasurement() })
	var m Metrics
	sim.At(horizon, func() { m = p.Snapshot() })
	src.Start()
	sim.Run()

	// Post-drain ledger invariants: every contribution was removed by
	// its deadline decrement, idle reset, or eviction — no orphans.
	for j := 0; j < p.Stages(); j++ {
		l := p.Controller().Ledger(j)
		if n := l.ActiveTasks(); n != 0 {
			t.Errorf("seed %d: stage %d holds %d orphan contributions after drain", seed, j, n)
		}
		if u := l.Utilization(); math.Abs(u) > 1e-9 {
			t.Errorf("seed %d: stage %d drained to utilization %v, want 0", seed, j, u)
		}
	}
	// Scheduler conservation: no stage lost work.
	for j := 0; j < p.Stages(); j++ {
		s := p.Stage(j).Stats()
		if s.Submitted != s.Completed+s.Cancelled {
			t.Errorf("seed %d: stage %d lost work: submitted %d, completed %d, cancelled %d",
				seed, j, s.Submitted, s.Completed, s.Cancelled)
		}
	}
	return rec, m, p, inj
}

// missesByHonesty partitions deadline misses in the trace into truthful
// tasks and liars.
func missesByHonesty(rec *trace.Recorder, inj *faults.Injector) (truthful, liars int) {
	for _, r := range rec.Records() {
		if r.Kind != "miss" {
			continue
		}
		if inj.Liar(r.Task) {
			liars++
		} else {
			truthful++
		}
	}
	return truthful, liars
}

// TestChaosSoakGuardSoundness is the core safety property of the overrun
// guard, across ten seeded fault schedules of demand overruns plus lost
// idle callbacks (the accounting-threat faults the guard is built for):
//
//   - with the guard in abort-and-evict mode, no truthfully-declared
//     admitted task ever misses its deadline — a liar's interference at
//     the stage it is evicted from never exceeds the demand the region
//     accounted for;
//   - with the guard disabled, the same schedules demonstrably produce
//     misses, proving the guard is load-bearing and not vacuous.
func TestChaosSoakGuardSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := faults.Config{
		LiarFraction: 0.25,
		LiarFactor:   3,
		IdleLossProb: 0.15,
	}
	var totalEvictions, totalDetected uint64
	var guardedCompleted, unguardedMisses int
	for seed := int64(1); seed <= 10; seed++ {
		rec, m, _, inj := chaosRun(t, seed, cfg, core.OverrunEvict)
		truthfulMisses, liarMisses := missesByHonesty(rec, inj)
		if truthfulMisses != 0 {
			t.Errorf("seed %d: %d truthfully-declared tasks missed deadlines under the evict guard", seed, truthfulMisses)
		}
		if liarMisses != 0 {
			// Liars are evicted at their first overrun, so none should
			// survive to depart late either.
			t.Errorf("seed %d: %d liars completed late despite the evict guard", seed, liarMisses)
		}
		guardedCompleted += int(m.Completed)
		totalEvictions += m.GuardStats.Evictions
		totalDetected += m.GuardStats.Detected

		recOff, _, _, injOff := chaosRun(t, seed, cfg, core.OverrunIgnore)
		tm, lm := missesByHonesty(recOff, injOff)
		unguardedMisses += tm + lm
	}
	if guardedCompleted < 1000 {
		t.Fatalf("suspiciously few guarded completions: %d", guardedCompleted)
	}
	if totalDetected == 0 || totalEvictions == 0 {
		t.Fatalf("fault schedules never tripped the guard (detected=%d evicted=%d): the soak is vacuous", totalDetected, totalEvictions)
	}
	if unguardedMisses == 0 {
		t.Fatal("unguarded runs produced zero misses: the guard is not load-bearing under these schedules")
	}
	t.Logf("chaos soak: %d completions, %d overruns detected, %d evicted; unguarded misses %d",
		guardedCompleted, totalDetected, totalEvictions, unguardedMisses)
}

// TestChaosSoakDegradedStages drives the full fault mix — stalls,
// crash-and-restart, slowdown windows, liars, lost idle callbacks —
// under the re-charge policy. Stage degradation violates the platform
// assumptions, so no admission policy can promise deadlines here; what
// must survive is the accounting: ledger invariants, scheduler
// conservation, and full recovery once the fault windows pass.
func TestChaosSoakDegradedStages(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := faults.Config{
		LiarFraction:   0.2,
		LiarFactor:     2.5,
		Stalls:         6,
		StallLen:       8,
		CrashRestart:   true,
		Slowdowns:      6,
		SlowdownLen:    15,
		SlowdownFactor: 2,
		IdleLossProb:   0.1,
	}
	var recharged, completed uint64
	for seed := int64(1); seed <= 5; seed++ {
		_, m, p, inj := chaosRun(t, seed, cfg, core.OverrunRecharge)
		completed += m.Completed
		recharged += m.GuardStats.Recharged
		for j := 0; j < p.Stages(); j++ {
			if s := p.Stage(j).Stats(); s.Completed+s.Cancelled != s.Submitted {
				t.Errorf("seed %d: stage %d not idle after drain: %+v", seed, j, s)
			}
		}
		// Every stall window resumed its stage.
		fs := inj.Stats()
		if fs.StallsFired == 0 || fs.Restarts != fs.StallsFired {
			t.Errorf("seed %d: stall windows unbalanced: %+v", seed, fs)
		}
	}
	if completed < 500 {
		t.Fatalf("suspiciously few completions under degradation: %d", completed)
	}
	if recharged == 0 {
		t.Fatal("re-charge policy never re-charged a ledger: the soak is vacuous")
	}
	t.Logf("degraded soak: %d completions, %d ledger re-charges", completed, recharged)
}
