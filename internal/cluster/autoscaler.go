package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"feasregion/internal/ticker"
)

// AutoscalerConfig parameterizes the admission-driven autoscaler. Zero
// values select the documented defaults. The signals are the fleet's
// aggregate region headroom as a fraction of its aggregate bound —
// admission capacity, not CPU — and the router's reject rate over the
// last tick.
type AutoscalerConfig struct {
	// Min and Max bound the replica count (active + draining). Defaults
	// 1 and 8; Min must be ≥ 1 and ≤ Max.
	Min, Max int

	// UpHeadroomFrac: an up-signal fires when aggregate headroom over
	// aggregate bound falls below this fraction. Default 0.15.
	UpHeadroomFrac float64
	// UpRejectRate: an up-signal also fires when the fraction of
	// requests rejected since the previous tick exceeds this. Default
	// 0.02.
	UpRejectRate float64
	// UpAfter is how many consecutive up-signal ticks trigger a
	// scale-up — fast, so sustained negative headroom adds capacity
	// within a couple of ticks. Default 2.
	UpAfter int

	// DownHeadroomFrac: a down-signal fires when the headroom fraction
	// exceeds this AND no request was rejected over the tick. Must
	// leave a hysteresis gap above UpHeadroomFrac. Default 0.6.
	DownHeadroomFrac float64
	// DownAfter is how many consecutive down-signal ticks trigger a
	// drain — slow, so transient lulls do not flap the fleet. Default 8.
	DownAfter int

	// Cooldown is how many ticks after any scaling action before the
	// next may fire (drained-replica removal is exempt). Default 3.
	Cooldown int

	// DrainEpsilon is the region value at or below which a draining
	// replica counts as empty and is removed. Default 1e-9.
	DrainEpsilon float64
}

// withDefaults fills zero fields and validates the hysteresis gap.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min == 0 {
		c.Min = 1
	}
	if c.Max == 0 {
		c.Max = 8
	}
	if c.Min < 1 || c.Max < c.Min {
		panic(fmt.Sprintf("cluster: autoscaler bounds [%d, %d] need 1 ≤ Min ≤ Max", c.Min, c.Max))
	}
	if c.UpHeadroomFrac == 0 {
		c.UpHeadroomFrac = 0.15
	}
	if c.UpRejectRate == 0 {
		c.UpRejectRate = 0.02
	}
	if c.UpAfter == 0 {
		c.UpAfter = 2
	}
	if c.DownHeadroomFrac == 0 {
		c.DownHeadroomFrac = 0.6
	}
	if c.DownAfter == 0 {
		c.DownAfter = 8
	}
	if c.Cooldown == 0 {
		c.Cooldown = 3
	}
	if c.DrainEpsilon == 0 {
		c.DrainEpsilon = 1e-9
	}
	if c.UpHeadroomFrac < 0 || c.DownHeadroomFrac <= c.UpHeadroomFrac {
		panic(fmt.Sprintf("cluster: headroom thresholds up %v / down %v need a hysteresis gap",
			c.UpHeadroomFrac, c.DownHeadroomFrac))
	}
	if c.UpAfter < 1 || c.DownAfter < 1 || c.Cooldown < 0 {
		panic(fmt.Sprintf("cluster: dwell counts up %d / down %d and cooldown %d out of range",
			c.UpAfter, c.DownAfter, c.Cooldown))
	}
	return c
}

// Action is the kind of a scaler transition.
type Action int

// Scaler transition kinds.
const (
	// ScaleUp added a fresh replica to the fleet.
	ScaleUp Action = iota
	// Undrain returned a draining replica to placement instead of
	// spawning a new one — the cheapest possible scale-up.
	Undrain
	// Drain stopped placements on a replica; its admitted work keeps
	// departing.
	Drain
	// Remove retired a drained replica from the fleet.
	Remove
)

// String returns the action's lowercase name.
func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "scale-up"
	case Undrain:
		return "undrain"
	case Drain:
		return "drain"
	case Remove:
		return "remove"
	default:
		return "unknown"
	}
}

// Transition records one scaler action for inspection and tests.
type Transition struct {
	// Tick is the 1-based tick the action fired on.
	Tick uint64
	// Action is what happened; Replica is the affected replica's ID.
	Action  Action
	Replica int
	// Active is the active-replica count after the action.
	Active int
	// HeadroomFrac and RejectRate are the signals observed on the tick.
	HeadroomFrac float64
	RejectRate   float64
}

// Autoscaler watches the fleet's aggregate region headroom and reject
// rate and adds or drains replicas with hysteresis: scale-up is fast
// (sustained exhausted headroom or rejects act within UpAfter ticks),
// scale-down is slow (DownAfter quiet ticks) and goes through a drain
// state that stops new placements but lets admitted tasks depart before
// the replica is removed. Drive it with Tick (deterministic: tests,
// simulation) or Start (wall clock).
type Autoscaler struct {
	cfg AutoscalerConfig
	c   *Cluster

	mu          sync.Mutex
	tick        uint64
	upStreak    int
	downStreak  int
	cooldown    int
	lastPlaced  uint64
	lastReject  uint64
	transitions []Transition
	onEvent     func(Transition)
}

// newAutoscaler builds the scaler over the cluster (Cluster wires it).
func newAutoscaler(cfg AutoscalerConfig, c *Cluster) *Autoscaler {
	return &Autoscaler{cfg: cfg.withDefaults(), c: c}
}

// Config returns the scaler's effective (default-filled) configuration.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// OnTransition installs a hook called (under the scaler's lock) for
// every recorded transition — the demo/printing hook.
func (a *Autoscaler) OnTransition(fn func(Transition)) {
	a.mu.Lock()
	a.onEvent = fn
	a.mu.Unlock()
}

// Transitions returns a copy of every transition so far.
func (a *Autoscaler) Transitions() []Transition {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Transition(nil), a.transitions...)
}

// Ticks returns how many ticks have run.
func (a *Autoscaler) Ticks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tick
}

// record appends a transition and fires the hook.
func (a *Autoscaler) record(t Transition) {
	a.transitions = append(a.transitions, t)
	if a.onEvent != nil {
		a.onEvent(t)
	}
}

// headroomFracLocked aggregates Σ headroom / Σ bound over the active
// replicas, refreshing each snapshot first so deadline expiries are
// visible. An empty fleet reads as zero headroom (maximally starved).
func (a *Autoscaler) headroomFracLocked() float64 {
	var sumH, sumB float64
	for _, rep := range a.c.Active() {
		rep.Refresh()
		h, _ := rep.Snapshot()
		sumH += h
		sumB += rep.Controller().Bound()
	}
	if sumB <= 0 {
		return 0
	}
	return math.Max(0, sumH/sumB)
}

// rejectRateLocked computes the fraction of requests the router
// rejected since the previous tick and moves the per-tick window.
func (a *Autoscaler) rejectRateLocked() float64 {
	st := a.c.Router().Stats()
	dp := st.Placed - a.lastPlaced
	dr := st.Rejected - a.lastReject
	a.lastPlaced, a.lastReject = st.Placed, st.Rejected
	if dp+dr == 0 {
		return 0
	}
	return float64(dr) / float64(dp+dr)
}

// Tick runs one scaler evaluation: refresh snapshots, aggregate the
// signals, retire drained replicas, and — outside the cooldown — apply
// at most one scaling action. Safe for concurrent use with routing.
func (a *Autoscaler) Tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tick++
	frac := a.headroomFracLocked()
	rate := a.rejectRateLocked()

	// Retire drained replicas regardless of cooldown: removal frees no
	// capacity and cannot oscillate.
	for _, rep := range a.c.Draining() {
		if rep.Drained(a.cfg.DrainEpsilon) {
			if a.c.remove(rep) {
				a.record(Transition{Tick: a.tick, Action: Remove, Replica: rep.ID(),
					Active: a.c.ActiveCount(), HeadroomFrac: frac, RejectRate: rate})
			}
		}
	}

	if a.cooldown > 0 {
		a.cooldown--
		return
	}

	up := frac < a.cfg.UpHeadroomFrac || rate > a.cfg.UpRejectRate
	down := !up && frac > a.cfg.DownHeadroomFrac && rate == 0

	switch {
	case up:
		a.downStreak = 0
		a.upStreak++
		if a.upStreak < a.cfg.UpAfter {
			return
		}
		a.upStreak = 0
		if rep, fresh, ok := a.c.grow(a.cfg.Max); ok {
			act := ScaleUp
			if !fresh {
				act = Undrain
			}
			a.record(Transition{Tick: a.tick, Action: act, Replica: rep.ID(),
				Active: a.c.ActiveCount(), HeadroomFrac: frac, RejectRate: rate})
			a.cooldown = a.cfg.Cooldown
		}
	case down:
		a.upStreak = 0
		a.downStreak++
		if a.downStreak < a.cfg.DownAfter {
			return
		}
		a.downStreak = 0
		if rep, ok := a.c.drainOne(a.cfg.Min); ok {
			a.record(Transition{Tick: a.tick, Action: Drain, Replica: rep.ID(),
				Active: a.c.ActiveCount(), HeadroomFrac: frac, RejectRate: rate})
			a.cooldown = a.cfg.Cooldown
		}
	default:
		a.upStreak, a.downStreak = 0, 0
	}
}

// Start ticks the scaler every interval on a background goroutine until
// the returned stop function is called (idempotent; waits for the
// goroutine to exit) — the wall-clock driver (ticker.Start).
func (a *Autoscaler) Start(interval time.Duration) (stop func()) {
	return ticker.Start(interval, a.Tick)
}
