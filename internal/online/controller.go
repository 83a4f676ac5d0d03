package online

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/shard"
)

// Clock abstracts time.Now for testing.
type Clock func() time.Time

// Request describes one admission request: per-stage computation-time
// estimates and a relative end-to-end deadline. It is an alias of the
// shard package's request type, so requests (and request slices) pass
// through to the data plane without copying.
type Request = shard.Request

// Stats counts admission outcomes, self-healing activity, and sharding
// control traffic; it is the data plane's counter snapshot.
type Stats = shard.Stats

// waiter is one blocked AdmitWithin caller. ch is buffered so wakers
// never block; queued tracks FIFO membership so a timed-out waiter can
// remove itself and a woken one re-queues cleanly. woken marks a waiter
// that consumed a wake token: if its re-test fails it re-queues at the
// FRONT of the FIFO (it was the head when woken), so a burst of wakes
// cannot rotate the queue and starve the oldest waiter.
type waiter struct {
	ch     chan struct{}
	queued bool
	woken  bool
}

// Controller is a thread-safe wall-clock admission controller enforcing
// the multi-dimensional feasible region. Its data plane is a
// shard.Controller; Controller adds the AdmitWithin waiter FIFO, the
// background watchdog, and metrics export. The zero value is not
// usable; construct with New.
type Controller struct {
	sh     *shard.Controller
	stages int
	clock  Clock // AdmitWithin's view of time

	// The waiter FIFO. The data plane reports freed capacity through
	// its wake hook, gated on nwaiters so operations with nobody
	// waiting never touch mu.
	nwaiters atomic.Int64
	mu       sync.Mutex
	waiters  []*waiter
}

// Config bundles the optional knobs of NewWithConfig. The zero value
// reproduces New(region, nil, nil).
type Config struct {
	// Reserved, when non-nil, sets per-stage reserved utilization
	// floors (one entry per stage, each in [0, 1)).
	Reserved []float64
	// Clock overrides time.Now (tests, simulation adapters).
	Clock Clock
	// Shards partitions the admission bound across 2^⌈log₂ K⌉
	// cache-line-padded shards (clamped to [1, 64]) so concurrent
	// admits stop serializing on one mutex; 0 or 1 means one shard,
	// where admission is a single exact test under one lock. Every
	// shard count admits exactly the same requests (see internal/shard).
	Shards int
}

// New builds a controller for the given region. reserved, when non-nil,
// sets per-stage reserved utilization floors. clock may be nil
// (time.Now).
func New(region core.Region, reserved []float64, clock Clock) *Controller {
	return NewWithConfig(region, Config{Reserved: reserved, Clock: clock})
}

// NewWithConfig builds a controller with the full option set.
func NewWithConfig(region core.Region, cfg Config) *Controller {
	c := &Controller{
		sh:     shard.New(region, cfg.Reserved, shard.Clock(cfg.Clock), max(1, cfg.Shards)),
		stages: region.Stages,
		clock:  cfg.Clock,
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	c.sh.SetWakeHook(func() {
		if c.nwaiters.Load() > 0 {
			c.mu.Lock()
			c.wakeLocked()
			c.mu.Unlock()
		}
	})
	return c
}

// wakeLocked hands one wake token to the head waiter. Wake-one (not
// broadcast) is the thundering-herd fix: each utilization drop wakes a
// single waiter, which re-tests; on success it wakes the next in line
// (capacity may remain), on failure it re-queues and goes back to
// sleep. Callers must hold mu.
func (c *Controller) wakeLocked() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters[0] = nil
	c.waiters = c.waiters[1:]
	w.queued = false
	c.nwaiters.Add(-1)
	w.ch <- struct{}{} // buffered: a queued waiter's channel is empty
}

// enqueueLocked adds w to the FIFO unless already queued: at the tail
// normally, at the front when w holds a consumed wake token (it was the
// head when woken; a failed re-test must not send it to the back, or a
// release burst would rotate the whole queue past it).
func (c *Controller) enqueueLocked(w *waiter) {
	if w.queued {
		return
	}
	w.queued = true
	if w.woken {
		w.woken = false
		c.waiters = append(c.waiters, nil)
		copy(c.waiters[1:], c.waiters)
		c.waiters[0] = w
	} else {
		c.waiters = append(c.waiters, w)
	}
	c.nwaiters.Add(1)
}

// dequeueLocked removes w if still queued; reports whether it was.
func (c *Controller) dequeueLocked(w *waiter) bool {
	if !w.queued {
		return false
	}
	for i, q := range c.waiters {
		if q == w {
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[len(c.waiters)-1] = nil
			c.waiters = c.waiters[:len(c.waiters)-1]
			break
		}
	}
	w.queued = false
	c.nwaiters.Add(-1)
	return true
}

// TryAdmit tests the request against the region and commits it on
// success. It is safe for concurrent use, allocation-free, and — under
// sustained overload, while no capacity has been freed and no purge is
// due — lock-free: rejection does not serialize on the controller. A
// purge is due only once the earliest deadline's 1 ms expiry bucket has
// ended, since before that it could free nothing.
func (c *Controller) TryAdmit(r Request) bool {
	return c.sh.Admit(&r, true, nil)
}

// TryAdmitValue is TryAdmit that, on admission, also returns the region
// value Σ_j f(U_j) right after the commit: the value RegionValue would
// read next. With one shard it is computed inside the admit's own
// critical section, which saves RegionValue's second lock round; with
// more, the admit is followed by a RegionValue call. A cluster replica
// publishes bound − value from it.
func (c *Controller) TryAdmitValue(r Request) (ok bool, value float64) {
	ok = c.sh.Admit(&r, true, &value)
	return ok, value
}

// TryAdmitAll tests and commits a burst of requests, amortizing the
// admission overhead across a batch of arrivals. With one shard that is
// one lock acquisition and one purge, and requests are tested in order,
// each against the state left by its predecessors; see
// shard.Controller.TryAdmitAll for the sharded grouping. out[i], when
// out is non-nil, reports request i's outcome. It returns the number
// admitted.
func (c *Controller) TryAdmitAll(rs []Request, out []bool) int {
	return c.sh.TryAdmitAll(rs, out)
}

// AdmitWithin blocks for up to maxWait until the request fits the
// region, retrying whenever utilization drops (expiry, release, idle
// reset) — the wall-clock analogue of the paper's §5 admission hold.
// The caller's deadline keeps ticking while waiting: the request's
// relative deadline is shortened by the time spent held, so a late
// admission carries a proportionally larger contribution, exactly as in
// the simulation wait queue. It reports whether the request was
// admitted. Timer-based waiting uses real time even with an injected
// clock.
//
// Waiters form a FIFO and are woken one at a time: each utilization
// drop hands a single wake token to the head waiter, which re-tests; a
// successful re-test passes the token on, a failed one re-queues the
// waiter. Nothing herds on a shared broadcast. Without a wake token a
// waiter sleeps until the earliest pending deadline's 1 ms expiry
// bucket ends, when a purge can first free capacity (or until maxWait,
// if sooner). The data plane has no lock to test-and-enqueue under
// atomically, so after one fast unenqueued attempt the loop enqueues
// BEFORE testing: capacity freed after the enqueue targets this waiter
// through the wake hook, and capacity freed between a failed test and
// the enqueue is caught by the enqueued re-test — a wakeup can never be
// lost.
func (c *Controller) AdmitWithin(r Request, maxWait time.Duration) bool {
	if r.Deadline <= 0 || len(r.Demands) != c.stages {
		c.sh.CountRejected()
		return false
	}
	start := c.clock()
	waitDeadline := start.Add(maxWait)
	w := &waiter{ch: make(chan struct{}, 1)}
	first := true
	for {
		now := c.clock()
		late := r
		late.Deadline = r.Deadline - now.Sub(start)
		if late.Deadline <= 0 {
			c.abandonWait(w)
			c.sh.CountRejected()
			return false
		}
		timedOut := !now.Before(waitDeadline)
		if !first && !timedOut {
			c.mu.Lock()
			c.enqueueLocked(w)
			c.mu.Unlock()
		}
		if c.sh.Admit(&late, false, nil) {
			if !first {
				c.abandonWait(w)
				// Pass the baton: the drop that woke us may have freed
				// room for the next waiter too.
				c.mu.Lock()
				c.wakeLocked()
				c.mu.Unlock()
			}
			return true
		}
		if timedOut {
			c.abandonWait(w)
			c.sh.CountRejected()
			return false
		}
		if first {
			// Failed fast attempt: loop once more to enqueue, then
			// re-test before sleeping.
			first = false
			continue
		}
		sleep := waitDeadline.Sub(now)
		if next := c.sh.NextExpiry(); next != math.MaxInt64 {
			if d := time.Unix(0, next).Sub(now); d < sleep {
				sleep = d
			}
		}
		if sleep < time.Millisecond {
			sleep = time.Millisecond
		}
		timer := time.NewTimer(sleep)
		select {
		case <-w.ch:
			timer.Stop()
			w.woken = true // a failed re-test re-queues at the front
		case <-timer.C:
			// Timer retry: leave the FIFO before re-testing so a
			// concurrent wake cannot target an already-awake waiter; a
			// token that raced in is handed to the next in line.
			c.abandonWait(w)
		}
	}
}

// abandonWait removes w from the FIFO; a wake token that raced in is
// handed to the next waiter instead of being dropped.
func (c *Controller) abandonWait(w *waiter) {
	c.mu.Lock()
	if !c.dequeueLocked(w) {
		select {
		case <-w.ch:
			c.wakeLocked()
		default:
		}
	}
	c.mu.Unlock()
}

// MarkDeparted records that the request finished its work at the stage,
// making its contribution eligible for the stage's idle reset.
func (c *Controller) MarkDeparted(stage int, id uint64) { c.sh.MarkDeparted(stage, id) }

// MarkDepartedAll records that a burst of requests finished their work
// at the stage, one lock acquisition and one purge per shard — the
// batch mirror of MarkDeparted. Contributions whose deadlines already
// passed are purged rather than marked.
func (c *Controller) MarkDepartedAll(stage int, ids []uint64) { c.sh.MarkDepartedAll(stage, ids) }

// StageIdle performs the idle reset for a stage; call it when the
// stage's worker pool drains (no queued or running work).
func (c *Controller) StageIdle(stage int) { c.sh.StageIdle(stage) }

// Release drops the request's contribution on all stages immediately —
// call it when a request is cancelled or finishes well before its
// deadline and the caller prefers eager accounting over the idle reset.
// Its pending expiry is discarded lazily when it comes due. Waiters are
// woken only when a contribution was actually removed; an
// already-expired or unknown ID is a silent no-op.
func (c *Controller) Release(id uint64) { c.sh.Release(id) }

// ReleaseAll drops the contributions of a burst of requests, one lock
// acquisition and one purge per shard — the batch mirror of Release,
// for services that complete requests in bursts. It returns how many of
// the IDs still had a live contribution. Waiters are woken once for the
// whole batch, including anything the accompanying purge expired.
func (c *Controller) ReleaseAll(ids []uint64) int { return c.sh.ReleaseAll(ids) }

// SetStageScale sets a demand multiplier for future admissions at the
// stage — the self-healing hook for degraded stages: a replica running
// at half speed effectively doubles every request's computation time
// there, so scale 2 keeps the admission test honest until the stage
// recovers (scale 1 restores nominal). Already-admitted contributions
// are unchanged. scale must be positive and finite.
func (c *Controller) SetStageScale(stage int, scale float64) { c.sh.SetStageScale(stage, scale) }

// StageScales returns the current per-stage demand multipliers.
func (c *Controller) StageScales() []float64 { return c.sh.StageScales() }

// StageScale returns stage j's demand multiplier without locking.
func (c *Controller) StageScale(j int) float64 { return c.sh.StageScale(j) }

// StageUtilization returns stage j's current synthetic utilization,
// purging due expiries first.
func (c *Controller) StageUtilization(j int) float64 { return c.sh.StageUtilization(j) }

// Utilizations returns the current per-stage synthetic utilization,
// purging due expiries first.
func (c *Controller) Utilizations() []float64 { return c.sh.Utilizations() }

// Headroom returns how much additional synthetic utilization the stage
// can absorb right now.
func (c *Controller) Headroom(stage int) float64 { return c.sh.Headroom(stage) }

// Bound returns the current admission bound α·(1 − Σβ_j) without
// locking.
func (c *Controller) Bound() float64 { return c.sh.Bound() }

// RegionValue returns the region value Σ_j f(U_j), summed in stage
// order, together with the admission bound, from one clock sample and
// one purged pass over the shards. The read allocates nothing;
// bound − value is the headroom a cluster replica publishes.
func (c *Controller) RegionValue() (value, bound float64) { return c.sh.RegionValue() }

// Region returns a copy of the controller's current feasible region
// (the base configuration, or the latest SetRegionInputs update).
func (c *Controller) Region() core.Region { return c.sh.Region() }

// SetRegionInputs replaces the region's urgency-inversion parameter α
// and per-stage blocking terms β_j at runtime — the actuator of the
// adaptive estimation loop (internal/adapt). alpha must be in (0, 1];
// betas, when non-nil, must have one non-negative entry per stage (nil
// keeps the current blocking terms). Already-admitted contributions are
// unchanged. When the bound relaxes, one waiter is woken to retry.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	c.sh.SetRegionInputs(alpha, betas)
}

// Reprioritize recomputes the urgency-inversion parameter α from a new
// priority order's (priority, deadline) pairs and republishes the
// region bound through SetRegionInputs — the online actuator of a
// priority-policy change (for example, installing a searched OPA order
// over the live request classes). Admitted work is never dropped: every
// admitted request keeps its reservation, and if the new order shrinks
// the bound below the current utilization point the controller simply
// stops admitting until enough contributions expire or depart. A
// DM-compatible order restores α = 1 and, when that relaxes the bound,
// wakes a waiting arrival. Degenerate orders (α ≤ 0 from a
// non-positive deadline) are clamped to the smallest positive α, which
// admits nothing further but stays well-formed. Returns the α applied.
func (c *Controller) Reprioritize(params []core.TaskParams) float64 {
	alpha := core.Alpha(params)
	if alpha <= 0 {
		alpha = math.SmallestNonzeroFloat64
	}
	c.SetRegionInputs(alpha, nil)
	return alpha
}

// QualityOf returns the quality level the request was admitted (or since
// retuned) at, and whether it currently contributes to any stage.
// Requests admitted by the plain TryAdmit path report full quality.
func (c *Controller) QualityOf(id uint64) (level int, present bool) { return c.sh.QualityOf(id) }

// TryAdmitQuality runs the quality-aware admission cascade against the
// live region: test at maxLevel (callers pass the governor's quality
// cap, or task.QualityLevels when ungoverned); if that fails and the
// request carries optional demand (Request.Optional), binary-search the
// highest level in [0, maxLevel) whose degraded demand still fits, and
// commit there. On success it returns the admitted level. Like
// TryAdmit, the path is allocation-free and rejects lock-free under
// sustained overload.
func (c *Controller) TryAdmitQuality(r Request, maxLevel int) (level int, ok bool) {
	return c.sh.TryAdmitQuality(r, maxLevel)
}

// SetQuality retunes an in-flight request's quality level: lowering
// scales its contribution down on every stage (always permitted — it
// only frees capacity and retries waiters); raising re-runs the region
// test with the enlarged contribution and is refused when it would
// leave the region. The request must carry the same Demands/Optional
// it was admitted with. It reports whether the level changed.
func (c *Controller) SetQuality(r Request, level int) bool { return c.sh.SetQuality(r, level) }

// Reconcile runs one watchdog pass: it purges expired contributions
// using the monotone clock (so skew cannot stall expiry) and, with more
// than one shard, re-centers the shard caps. Embedding applications
// call it periodically (or via StartWatchdog) as a safety net; on a
// healthy controller it is cheap. It returns how many contributions the
// purge expired.
func (c *Controller) Reconcile() int { return c.sh.Reconcile() }

// StartWatchdog runs Reconcile every interval on a background goroutine
// until the returned stop function is called (stop is idempotent and
// waits for the goroutine to exit).
func (c *Controller) StartWatchdog(interval time.Duration) (stop func()) {
	if interval <= 0 {
		panic("online: watchdog interval must be positive")
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.Reconcile()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Stats returns a snapshot of the counters (summed over the shards
// under each shard's lock in turn; not one atomic cut).
func (c *Controller) Stats() Stats { return c.sh.Stats() }
