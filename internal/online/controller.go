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
// the multi-dimensional feasible region. It embeds its data plane, a
// shard.Controller, whose methods (TryAdmit, TryAdmitAll, TryAdmitQuality,
// SetQuality, Release, MarkDeparted, StageIdle, SetStageScale,
// SetRegionInputs, RegionValue, Reconcile, Stats, ...) it exposes as its
// own, and adds the AdmitWithin waiter FIFO, the background watchdog,
// and metrics export. The zero value is not usable; construct with New.
type Controller struct {
	*shard.Controller
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
		stages: region.Stages,
		clock:  cfg.Clock,
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	c.Controller = shard.New(region, cfg.Reserved, shard.Clock(cfg.Clock), max(1, cfg.Shards), c.wake)
	return c
}

// wake is the data plane's capacity-freed hook: it hands a wake token
// to the head waiter, touching mu only when somebody waits.
func (c *Controller) wake() {
	if c.nwaiters.Load() > 0 {
		c.mu.Lock()
		c.wakeLocked()
		c.mu.Unlock()
	}
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

// TryAdmitValue is TryAdmit that, on admission, also returns the region
// value Σ_j f(U_j) right after the commit: the value RegionValue would
// read next. With one shard it is computed inside the admit's own
// critical section, which saves RegionValue's second lock round; with
// more, the admit is followed by a RegionValue call. A cluster replica
// publishes bound − value from it.
func (c *Controller) TryAdmitValue(r Request) (ok bool, value float64) {
	ok = c.Admit(&r, true, &value)
	return ok, value
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
		c.CountRejected()
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
			c.CountRejected()
			return false
		}
		timedOut := !now.Before(waitDeadline)
		if !first && !timedOut {
			c.mu.Lock()
			c.enqueueLocked(w)
			c.mu.Unlock()
		}
		if c.Admit(&late, false, nil) {
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
			c.CountRejected()
			return false
		}
		if first {
			// Failed fast attempt: loop once more to enqueue, then
			// re-test before sleeping.
			first = false
			continue
		}
		sleep := waitDeadline.Sub(now)
		if next := c.NextExpiry(); next != math.MaxInt64 {
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
