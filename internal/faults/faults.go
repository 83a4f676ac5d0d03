package faults

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/sched"
	"feasregion/internal/task"
)

// StallWindow stalls one stage for [Start, Start+Duration); with
// DropProgress the restart loses in-progress segment work (crash).
type StallWindow struct {
	Stage        int
	Start        float64
	Duration     float64
	DropProgress bool
}

// SlowWindow multiplies the execution time of work submitted to the
// stage during [Start, Start+Duration) by Factor (> 1 is slower).
type SlowWindow struct {
	Stage    int
	Start    float64
	Duration float64
	Factor   float64
}

// Config parameterizes a randomized fault schedule. Zero values disable
// the corresponding fault class.
type Config struct {
	// Stages is the pipeline length the schedule spans. Required.
	Stages int
	// Horizon bounds the window [0, Horizon) in which randomized fault
	// windows are placed. Required when Stalls or Slowdowns is non-zero.
	Horizon float64

	// LiarFraction is the fraction of tasks that underdeclared their
	// demand: they execute LiarFactor times longer than declared at
	// every stage.
	LiarFraction float64
	// LiarFactor is the execution inflation for liars (must be ≥ 1 when
	// LiarFraction > 0).
	LiarFactor float64
	// LiarFilter, when non-nil, restricts lying to tasks for which it
	// returns true (LiarFraction then applies within that subset). Use
	// it to correlate underdeclared demand with a property the caller
	// controls — e.g. a partition of the task-ID space carrying one
	// workload class, so per-class estimators have something to find.
	LiarFilter func(id task.ID) bool

	// Stalls places this many stall windows of StallLen each, uniformly
	// over stages and time. CrashRestart makes each restart drop
	// in-progress segment work.
	Stalls       int
	StallLen     float64
	CrashRestart bool

	// Slowdowns places this many slowdown windows of SlowdownLen each,
	// scaling execution by SlowdownFactor, uniformly over stages & time.
	Slowdowns      int
	SlowdownLen    float64
	SlowdownFactor float64

	// IdleLossProb is the probability that any individual stage-idle
	// callback is dropped before reaching the admission controller.
	IdleLossProb float64

	// StallWindows and SlowWindows append explicitly placed windows to
	// the randomized schedule — for experiments that need the same
	// deterministic fault at a known instant across runs (e.g. the
	// stage-health feedback demonstration).
	StallWindows []StallWindow
	SlowWindows  []SlowWindow
}

func (c Config) validate() {
	if c.Stages <= 0 {
		panic(fmt.Sprintf("faults: need at least one stage, got %d", c.Stages))
	}
	if (c.Stalls > 0 || c.Slowdowns > 0) && c.Horizon <= 0 {
		panic("faults: randomized windows need a positive horizon")
	}
	if c.LiarFraction < 0 || c.LiarFraction > 1 {
		panic(fmt.Sprintf("faults: liar fraction %v outside [0, 1]", c.LiarFraction))
	}
	if c.LiarFraction > 0 && c.LiarFactor < 1 {
		panic(fmt.Sprintf("faults: liar factor %v must be ≥ 1", c.LiarFactor))
	}
	if c.Slowdowns > 0 && c.SlowdownFactor <= 0 {
		panic(fmt.Sprintf("faults: slowdown factor %v must be positive", c.SlowdownFactor))
	}
	if c.IdleLossProb < 0 || c.IdleLossProb > 1 {
		panic(fmt.Sprintf("faults: idle-loss probability %v outside [0, 1]", c.IdleLossProb))
	}
	for _, w := range c.StallWindows {
		if w.Stage < 0 || w.Stage >= c.Stages || w.Duration < 0 {
			panic(fmt.Sprintf("faults: invalid explicit stall window %+v", w))
		}
	}
	for _, w := range c.SlowWindows {
		if w.Stage < 0 || w.Stage >= c.Stages || w.Duration < 0 || w.Factor <= 0 {
			panic(fmt.Sprintf("faults: invalid explicit slowdown window %+v", w))
		}
	}
}

// Stats counts injected faults.
type Stats struct {
	// InflatedJobs counts job submissions whose execution was inflated
	// (liar or slowdown window).
	InflatedJobs uint64
	// StallsFired / Restarts count stall-window transitions.
	StallsFired uint64
	Restarts    uint64
	// ProgressDropped counts jobs that lost segment progress to a crash.
	ProgressDropped uint64
	// IdleDropped counts stage-idle callbacks that were swallowed.
	IdleDropped uint64
}

// Injector realizes one deterministic fault schedule: the same (Config,
// seed) pair always yields the same windows, the same liars, and — in a
// deterministic simulation — the same idle-callback losses.
type Injector struct {
	cfg    Config
	seed   int64
	rng    *dist.RNG // idle-loss draws, consumed in simulation event order
	stalls []StallWindow
	slows  []SlowWindow
	sim    *des.Simulator
	stats  Stats
}

// New builds the schedule. Window placement draws from a dist.RNG seeded
// with seed; liar selection is a stateless hash of (seed, task ID) so it
// is independent of arrival order.
func New(cfg Config, seed int64) *Injector {
	cfg.validate()
	rng := dist.NewRNG(seed)
	in := &Injector{cfg: cfg, seed: seed, rng: rng}
	for i := 0; i < cfg.Stalls; i++ {
		in.stalls = append(in.stalls, StallWindow{
			Stage:        rng.Intn(cfg.Stages),
			Start:        rng.Float64() * cfg.Horizon,
			Duration:     cfg.StallLen,
			DropProgress: cfg.CrashRestart,
		})
	}
	for i := 0; i < cfg.Slowdowns; i++ {
		in.slows = append(in.slows, SlowWindow{
			Stage:    rng.Intn(cfg.Stages),
			Start:    rng.Float64() * cfg.Horizon,
			Duration: cfg.SlowdownLen,
			Factor:   cfg.SlowdownFactor,
		})
	}
	in.stalls = append(in.stalls, cfg.StallWindows...)
	in.slows = append(in.slows, cfg.SlowWindows...)
	return in
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// Liar reports whether the task underdeclared its demand. The decision
// is a stateless hash of (seed, id): stable across stages, replications,
// and arrival orders, so tests can partition completed tasks into
// truthful and lying after the fact.
func (in *Injector) Liar(id task.ID) bool {
	if in.cfg.LiarFraction <= 0 {
		return false
	}
	if in.cfg.LiarFilter != nil && !in.cfg.LiarFilter(id) {
		return false
	}
	return uniformHash(uint64(in.seed), uint64(id)) < in.cfg.LiarFraction
}

// uniformHash maps (seed, id) to [0, 1) via splitmix64 finalization.
func uniformHash(seed, id uint64) float64 {
	x := seed ^ (id * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// execFactor returns the combined execution inflation for a job of the
// task submitted to the stage at the given time.
func (in *Injector) execFactor(stage int, id task.ID, now float64) float64 {
	f := 1.0
	if in.Liar(id) {
		f *= in.cfg.LiarFactor
	}
	for _, w := range in.slows {
		if w.Stage == stage && now >= w.Start && now < w.Start+w.Duration {
			f *= w.Factor
		}
	}
	return f
}

// DropIdle reports whether this stage-idle callback should be swallowed.
// Draw order follows simulation event order, so runs are reproducible.
func (in *Injector) DropIdle(stage int, now des.Time) bool {
	if in.cfg.IdleLossProb <= 0 {
		return false
	}
	if in.rng.Float64() < in.cfg.IdleLossProb {
		in.stats.IdleDropped++
		return true
	}
	return false
}

// Attach installs the schedule into the stages: exec models for demand
// inflation and slowdowns, and calendar events for stall windows. Call
// it once, before the simulation starts; stall windows already in the
// past are skipped.
func (in *Injector) Attach(sim *des.Simulator, stages []*sched.Stage) {
	if len(stages) != in.cfg.Stages {
		panic(fmt.Sprintf("faults: schedule spans %d stages, got %d", in.cfg.Stages, len(stages)))
	}
	if in.sim != nil {
		panic("faults: injector already attached")
	}
	in.sim = sim
	if in.cfg.LiarFraction > 0 || len(in.slows) > 0 {
		for j, st := range stages {
			j := j
			st.SetExecModel(func(id task.ID, nominal float64) float64 {
				f := in.execFactor(j, id, sim.Now())
				if f != 1 {
					in.stats.InflatedJobs++
				}
				return nominal * f
			})
		}
	}
	for _, w := range in.stalls {
		w := w
		if w.Start < sim.Now() {
			continue
		}
		st := stages[w.Stage]
		sim.At(w.Start, func() {
			st.Pause()
			in.stats.StallsFired++
			if w.DropProgress {
				in.stats.ProgressDropped += uint64(st.DropProgress())
			}
		})
		sim.At(w.Start+w.Duration, func() {
			st.Resume()
			in.stats.Restarts++
		})
	}
}
