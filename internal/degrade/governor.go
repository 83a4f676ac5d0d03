package degrade

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
	"feasregion/internal/ticker"
)

// State is the governor's operating mode.
type State int32

// Governor states, in order of increasing distress.
const (
	// Normal: the quality cap is at the top of the ladder and admissions
	// run at full quality.
	Normal State = iota
	// Degraded: headroom (or overrun feedback) forced the cap below full
	// quality; new admissions enter degraded and in-flight tasks above
	// the cap are trimmed. No evictions.
	Degraded
	// Shedding: headroom is exhausted with the cap already driven to
	// mandatory-only; evicting admitted tasks is permitted.
	Shedding
)

// String returns the state's label.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Degraded:
		return "degraded"
	case Shedding:
		return "shedding"
	default:
		return "unknown"
	}
}

// Config parameterizes the governor's hysteresis. The zero value of any
// field selects its default.
type Config struct {
	// Levels is the quality ladder height (default task.QualityLevels).
	Levels int
	// DegradeBelow is the headroom fraction (bound−value)/bound below
	// which the governor lowers the quality cap (default 0.15).
	DegradeBelow float64
	// RestoreAbove is the headroom fraction above which the governor
	// raises the cap back toward full quality (default 0.30). It must
	// exceed DegradeBelow — the gap is the hysteresis band that prevents
	// oscillation at the boundary.
	RestoreAbove float64
	// ShedBelow is the headroom fraction below which the governor enters
	// Shedding, forces the cap to mandatory-only, and permits evictions
	// (default 0.02).
	ShedBelow float64
	// OverrunTolerance is the number of new guard overrun detections per
	// tick the governor ignores; more than this many forces a degrade
	// step even with headroom to spare (default 0: any overrun degrades).
	OverrunTolerance uint64
	// StepsPerTick is how many ladder steps the cap moves per tick in
	// either direction (default 1). Shedding is exempt: it drops the cap
	// to zero at once.
	StepsPerTick int
}

// withDefaults fills zero fields and validates the result.
func (c Config) withDefaults() Config {
	if c.Levels == 0 {
		c.Levels = task.QualityLevels
	}
	if c.DegradeBelow == 0 {
		c.DegradeBelow = 0.15
	}
	if c.RestoreAbove == 0 {
		c.RestoreAbove = 0.30
	}
	if c.ShedBelow == 0 {
		c.ShedBelow = 0.02
	}
	if c.StepsPerTick == 0 {
		c.StepsPerTick = 1
	}
	switch {
	case c.Levels < 1:
		panic(fmt.Sprintf("degrade: Levels %d must be positive", c.Levels))
	case c.StepsPerTick < 1:
		panic(fmt.Sprintf("degrade: StepsPerTick %d must be positive", c.StepsPerTick))
	case c.DegradeBelow < 0 || c.DegradeBelow >= 1:
		panic(fmt.Sprintf("degrade: DegradeBelow %v outside [0, 1)", c.DegradeBelow))
	case c.RestoreAbove <= c.DegradeBelow || c.RestoreAbove > 1:
		panic(fmt.Sprintf("degrade: RestoreAbove %v must be in (DegradeBelow, 1]", c.RestoreAbove))
	case c.ShedBelow < 0 || c.ShedBelow > c.DegradeBelow:
		panic(fmt.Sprintf("degrade: ShedBelow %v must be in [0, DegradeBelow]", c.ShedBelow))
	}
	return c
}

// Inputs are the governor's sensor closures. They are read once per Tick
// and must be safe to call from the ticking goroutine.
type Inputs struct {
	// Headroom returns the current region value Σ f(U_j) and the bound
	// α(1−Σβ_j); the governor acts on the fraction (bound−value)/bound.
	// Required.
	Headroom func() (value, bound float64)
	// Overruns returns the cumulative count of guard overrun detections
	// (monotone; the governor differences successive reads). Optional —
	// nil disables overrun feedback.
	Overruns func() uint64
}

// Stats are the governor's cumulative counters.
type Stats struct {
	Ticks        uint64
	DegradeSteps uint64 // ticks that lowered the cap
	RestoreSteps uint64 // ticks that raised the cap
	Transitions  uint64 // state changes
	TrimmedTasks uint64 // in-flight tasks trimmed via the trimmer callback
}

// Governor is the overload state machine. Create it with New; the zero
// value is not usable. QualityCap and State are lock-free reads, safe
// from admission hot paths; Tick serializes internally.
type Governor struct {
	cfg Config
	in  Inputs

	state atomic.Int32
	cap   atomic.Int64

	mu           sync.Mutex
	lastOverruns uint64
	overrunsInit bool
	trimmer      func(maxLevel int) int
	onTransition func(from, to State)
	stats        Stats

	metState       *metrics.Gauge
	metCap         *metrics.Gauge
	metTrimmed     *metrics.Counter
	metTransitions *metrics.Counter
}

// New returns a governor in the Normal state with the cap at full
// quality. in.Headroom is required.
func New(cfg Config, in Inputs) *Governor {
	if in.Headroom == nil {
		panic("degrade: Inputs.Headroom is required")
	}
	g := &Governor{cfg: cfg.withDefaults(), in: in}
	g.cap.Store(int64(g.cfg.Levels))
	g.state.Store(int32(Normal))
	return g
}

// SetTrimmer installs the in-flight actuator: whenever a tick lowers the
// quality cap, the governor calls fn with the new cap, and fn degrades
// every admitted task above it (returning how many it trimmed). The
// pipeline wires this to its quality-trim walk. At most one trimmer is
// supported; it runs while the governor's tick lock is held, so it must
// not call back into the governor.
func (g *Governor) SetTrimmer(fn func(maxLevel int) int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.trimmer = fn
}

// OnTransition registers an observer for state changes, called (under
// the tick lock) with the old and new state. At most one observer is
// supported; examples print ladder transitions through it.
func (g *Governor) OnTransition(fn func(from, to State)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onTransition = fn
}

// SetMetrics registers the governor's instruments: the current state
// (0=normal, 1=degraded, 2=shedding), the quality cap, and counters for
// trimmed tasks and state transitions. A nil registry is a no-op.
func (g *Governor) SetMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	g.metState = r.Gauge("feasregion_governor_state", "overload governor state (0=normal 1=degraded 2=shedding)")
	g.metCap = r.Gauge("feasregion_governor_quality_cap", "max quality level new admissions may enter at")
	g.metTrimmed = r.Counter("feasregion_governor_trimmed_total", "in-flight tasks trimmed by governor ticks")
	g.metTransitions = r.Counter("feasregion_governor_transitions_total", "governor state transitions")
	g.metState.Set(float64(g.State()))
	g.metCap.Set(float64(g.QualityCap()))
}

// QualityCap returns the highest quality level a new admission may enter
// at right now. Lock-free.
func (g *Governor) QualityCap() int { return int(g.cap.Load()) }

// State returns the current operating mode. Lock-free.
func (g *Governor) State() State { return State(g.state.Load()) }

// AllowEviction reports whether the governor currently permits evicting
// admitted tasks: only in Shedding, when everyone is already at
// mandatory-only and headroom is still exhausted.
func (g *Governor) AllowEviction() bool { return g.State() == Shedding }

// Stats returns a snapshot of the governor's counters.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Tick runs one control step: read the sensors, move the quality cap at
// most StepsPerTick ladder steps (down when headroom is below
// DegradeBelow or overruns exceed tolerance, up when above RestoreAbove;
// straight to zero in Shedding), trim in-flight tasks above a lowered
// cap, and derive the state. The restore path is monotone: quality rises
// one step per quiet tick, never jumps.
func (g *Governor) Tick() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.Ticks++

	value, bound := g.in.Headroom()
	frac := 0.0
	if bound > 0 {
		frac = (bound - value) / bound
	}
	if frac < 0 {
		frac = 0
	}
	var newOverruns uint64
	if g.in.Overruns != nil {
		ov := g.in.Overruns()
		if g.overrunsInit && ov > g.lastOverruns {
			newOverruns = ov - g.lastOverruns
		}
		g.lastOverruns = ov
		g.overrunsInit = true
	}

	cap := int(g.cap.Load())
	next := cap
	switch {
	case frac < g.cfg.ShedBelow:
		next = 0
	case frac < g.cfg.DegradeBelow || newOverruns > g.cfg.OverrunTolerance:
		next = cap - g.cfg.StepsPerTick
	case frac > g.cfg.RestoreAbove && newOverruns <= g.cfg.OverrunTolerance:
		next = cap + g.cfg.StepsPerTick
	}
	if next < 0 {
		next = 0
	}
	if next > g.cfg.Levels {
		next = g.cfg.Levels
	}
	if next < cap {
		g.stats.DegradeSteps++
		g.cap.Store(int64(next))
		if g.trimmer != nil {
			n := g.trimmer(next)
			if n > 0 {
				g.stats.TrimmedTasks += uint64(n)
				g.metTrimmed.Add(uint64(n))
			}
		}
	} else if next > cap {
		g.stats.RestoreSteps++
		g.cap.Store(int64(next))
	}
	g.metCap.Set(float64(next))

	// Derive the state from where the cap ended up: Shedding only while
	// headroom stays exhausted, Normal only at full quality.
	state := State(g.state.Load())
	var target State
	switch {
	case frac < g.cfg.ShedBelow:
		target = Shedding
	case next < g.cfg.Levels:
		target = Degraded
	default:
		target = Normal
	}
	if target != state {
		g.stats.Transitions++
		g.metTransitions.Inc()
		g.state.Store(int32(target))
		g.metState.Set(float64(target))
		if g.onTransition != nil {
			g.onTransition(state, target)
		}
	}
}

// ScheduleSim arranges for the governor to tick every interval of
// simulated time, from interval up to and including until — the
// simulation-side driver (ticker.Sim).
func (g *Governor) ScheduleSim(sim *des.Simulator, interval, until des.Time) {
	ticker.Sim(sim, interval, until, g.Tick)
}

// Start ticks the governor every interval on a background goroutine
// until the returned stop function is called (idempotent; waits for the
// goroutine to exit) — the wall-clock driver for online controllers
// (ticker.Start).
func (g *Governor) Start(interval time.Duration) (stop func()) {
	return ticker.Start(interval, g.Tick)
}
