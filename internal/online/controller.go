package online

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/expiry"
	"feasregion/internal/shard"
	"feasregion/internal/task"
)

// Clock abstracts time.Now for testing.
type Clock func() time.Time

// Request describes one admission request: per-stage computation-time
// estimates and a relative end-to-end deadline. It is an alias of the
// shard package's request type, so the sharded delegation passes
// requests (and request slices) through without copying.
type Request = shard.Request

// wheelGranularity is the expiry wheel's level-0 bucket width. A purge
// may run up to one bucket late, so capacity release lags a deadline by
// at most ~1ms — conservative (the region test stays sound) and
// invisible next to typical service deadlines.
const wheelGranularity = time.Millisecond

// maxStackStages bounds the stage count for which the admit path uses
// stack buffers; wider pipelines draw scratch from a sync.Pool so the
// path stays allocation-free either way.
const maxStackStages = 8

// admitBufs is pooled float scratch for pipelines wider than
// maxStackStages.
type admitBufs struct{ raw, opt, utils, scales []float64 }

var admitBufPool = sync.Pool{New: func() any { return new(admitBufs) }}

// Stats counts admission outcomes and self-healing activity.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// Expired counts contributions removed by the lazy deadline purge.
	Expired uint64
	// IdleResets counts StageIdle calls that freed at least one
	// contribution.
	IdleResets uint64
	// Reconciles counts watchdog/reconciliation passes.
	Reconciles uint64
	// OrphansReaped counts leaked contributions the reconciliation pass
	// removed: ledger entries with no pending expiry, which would
	// otherwise inflate synthetic utilization forever.
	OrphansReaped uint64
	// ClockRegressions counts observations of the wall clock stepping
	// backwards (VM migration, NTP correction, injected skew). The
	// purge clock is monotone, so regressions cannot stall expiry.
	ClockRegressions uint64
	// Degraded counts admissions that entered below full quality via
	// TryAdmitQuality's fallback search.
	Degraded uint64
	// Trimmed counts SetQuality calls that lowered an in-flight
	// request's level; Restored counts the ones that raised it.
	Trimmed  uint64
	Restored uint64
	// Cancelled counts pending expiries unlinked eagerly by Release or
	// ReleaseAll instead of lingering until their deadline purge. A
	// sharded controller cancels lazily instead: the count is stale
	// wheel entries its purge discarded.
	Cancelled uint64
	// Steals, GlobalFallbacks, and Rebalances count sharded-mode
	// control traffic (always zero on an unsharded controller): admits
	// that needed peer headroom, exact all-shard admission passes, and
	// cap re-partitions.
	Steals          uint64
	GlobalFallbacks uint64
	Rebalances      uint64
}

// counters mirrors Stats as atomics so the lock-free reject path and
// Stats/metrics scrapes never widen a critical section.
type counters struct {
	admitted         atomic.Uint64
	rejected         atomic.Uint64
	expired          atomic.Uint64
	idleResets       atomic.Uint64
	reconciles       atomic.Uint64
	orphansReaped    atomic.Uint64
	clockRegressions atomic.Uint64
	degraded         atomic.Uint64
	trimmed          atomic.Uint64
	restored         atomic.Uint64
	cancelled        atomic.Uint64
}

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
// the multi-dimensional feasible region. The zero value is not usable;
// construct with New.
type Controller struct {
	region core.Region // guarded by mu; mutable via SetRegionInputs
	bound  float64     // cached region.Bound(); guarded by mu, mirrored in boundBits
	stages int
	clock  Clock

	// Seqlock-published mirror of the locked state below: seq is even
	// when the mirror is consistent; writers (holding mu) make it odd,
	// store the new per-stage utilization, scale, and bound float bits,
	// then make it even again. Readers retry torn reads, then fall back
	// to the lock.
	seq       atomic.Uint64
	utilBits  []atomic.Uint64
	scaleBits []atomic.Uint64
	boundBits atomic.Uint64 // region bound α·(1−Σβ) for the lock-free reject test
	// nextExpiry is a lower bound (UnixNano) on the earliest pending
	// expiry, math.MaxInt64 when none — the gate that keeps lock-free
	// reads honest: once it passes, readers take the locked path so the
	// purge runs first.
	nextExpiry atomic.Int64
	// maxNowNano mirrors maxNow for the lock-free gates, so a wall
	// clock stepping backwards cannot re-open the lock-free window and
	// hide a due purge (or the regression itself) from observation.
	maxNowNano atomic.Int64

	stats counters

	// sh, when non-nil, is the sharded data plane (Config.Shards > 1):
	// every admission-path method delegates to it and the fields above
	// except clock/stages are unused. The waiter FIFO below still lives
	// here — the shard controller reports freed capacity through its
	// wake hook, gated on nwaiters so uncontended shard operations never
	// touch this mutex.
	sh       *shard.Controller
	nwaiters atomic.Int64

	mu      sync.Mutex
	ledgers []*core.Ledger
	wheel   *expiry.Wheel
	scales  []float64           // per-stage demand multipliers (degraded stages)
	maxNow  time.Time           // monotone high-water mark of observed clock
	waiters []*waiter           // FIFO of blocked AdmitWithin callers
	reapSet map[uint64]struct{} // reusable scratch for Reconcile
	// levels records the quality level of requests admitted (or retuned)
	// below full quality; absent means full. Guarded by mu, cleaned on
	// expiry, release, and orphan reap.
	levels map[uint64]int
}

// Config bundles the optional knobs of NewWithConfig. The zero value
// reproduces New(region, nil, nil).
type Config struct {
	// Reserved, when non-nil, sets per-stage reserved utilization
	// floors (one entry per stage).
	Reserved []float64
	// Clock overrides time.Now (tests, simulation adapters).
	Clock Clock
	// Shards partitions the admission bound across 2^⌈log₂ K⌉
	// cache-line-padded shards (clamped to [1, 64]) so concurrent
	// admits stop serializing on one mutex. 0 or 1 keeps the single
	// unsharded data plane. The sharded controller admits exactly the
	// task sets the unsharded one admits (see internal/shard); the one
	// observable difference is that Release cancels pending expiries
	// lazily, so Stats.Cancelled counts purge-time discards instead of
	// eager unlinks.
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
	if cfg.Shards > 1 {
		c := &Controller{
			stages: region.Stages,
			clock:  cfg.Clock,
			sh:     shard.New(region, cfg.Reserved, shard.Clock(cfg.Clock), cfg.Shards),
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
	reserved, clock := cfg.Reserved, cfg.Clock
	if reserved != nil && len(reserved) != region.Stages {
		panic(fmt.Sprintf("online: %d reserved values for %d stages", len(reserved), region.Stages))
	}
	if clock == nil {
		clock = time.Now
	}
	ledgers := make([]*core.Ledger, region.Stages)
	scales := make([]float64, region.Stages)
	for j := range ledgers {
		f := 0.0
		if reserved != nil {
			f = reserved[j]
		}
		ledgers[j] = core.NewLedger(f)
		scales[j] = 1
	}
	now := clock()
	c := &Controller{
		region:    region,
		bound:     region.Bound(),
		stages:    region.Stages,
		clock:     clock,
		utilBits:  make([]atomic.Uint64, region.Stages),
		scaleBits: make([]atomic.Uint64, region.Stages),
		ledgers:   ledgers,
		wheel:     expiry.New(wheelGranularity, now, true),
		scales:    scales,
		maxNow:    now,
		reapSet:   map[uint64]struct{}{},
		levels:    map[uint64]int{},
	}
	c.nextExpiry.Store(math.MaxInt64)
	c.maxNowNano.Store(now.UnixNano())
	c.publishLocked() // publish the reserved floors and nominal scales
	return c
}

// publishLocked refreshes the full seqlock mirror from the locked
// state. Callers must hold mu (construction aside). Readers detect a
// torn read by requiring two loads of seq to agree on the same even
// value.
func (c *Controller) publishLocked() {
	c.seq.Add(1) // odd: mirror inconsistent
	for j, l := range c.ledgers {
		c.utilBits[j].Store(math.Float64bits(l.Utilization()))
		c.scaleBits[j].Store(math.Float64bits(c.scales[j]))
	}
	c.boundBits.Store(math.Float64bits(c.bound))
	c.seq.Add(1) // even: consistent again
}

// publishUtilsLocked refreshes only the utilization half of the mirror —
// the hot-path variant: scales change only through SetStageScale (which
// runs the full publish), so admit/release/purge skip those stores.
func (c *Controller) publishUtilsLocked() {
	c.seq.Add(1)
	for j, l := range c.ledgers {
		c.utilBits[j].Store(math.Float64bits(l.Utilization()))
	}
	c.seq.Add(1)
}

// readSnapshot fills utils (and scales, when non-nil) from the seqlock
// mirror without locking and returns the region bound consistent with
// that snapshot plus the epoch it was taken at. It reports false after
// a few torn reads — callers then fall back to the locked path. The
// epoch increments on every publish, so a caller that later holds mu
// and observes the same epoch knows the snapshot (utilizations, scales,
// and bound alike) still equals the locked state exactly.
func (c *Controller) readSnapshot(utils, scales []float64) (bound float64, seq uint64, ok bool) {
	for attempt := 0; attempt < 3; attempt++ {
		s := c.seq.Load()
		if s&1 != 0 {
			continue
		}
		for j := range utils {
			utils[j] = math.Float64frombits(c.utilBits[j].Load())
		}
		for j := range scales {
			scales[j] = math.Float64frombits(c.scaleBits[j].Load())
		}
		b := math.Float64frombits(c.boundBits.Load())
		if c.seq.Load() == s {
			return b, s, true
		}
	}
	return 0, 0, false
}

// wakeLocked hands one wake token to the head waiter. Wake-one (not
// broadcast) is the thundering-herd fix: each utilization drop wakes a
// single waiter, which re-tests under the lock; on success it wakes the
// next in line (capacity may remain), on failure it re-queues and goes
// back to sleep. Callers must hold mu.
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

// monotoneLocked folds a clock observation into the controller's
// monotone high-water mark. A wall clock can step backwards (NTP
// correction, VM migration, injected skew); expiry must never stall
// because of it, so all deadline arithmetic uses the monotone view.
func (c *Controller) monotoneLocked(now time.Time) time.Time {
	if now.Before(c.maxNow) {
		c.stats.clockRegressions.Add(1)
		return c.maxNow
	}
	c.maxNow = now
	c.maxNowNano.Store(now.UnixNano())
	return now
}

// nowMonotoneNano samples the clock through the monotone high-water
// mark for the lock-free gates. A regressed sample is counted (so skew
// remains observable even when no locked path runs) and clamped, so a
// backwards step can never make a due purge look not-yet-due.
func (c *Controller) nowMonotoneNano() int64 {
	n := c.clock().UnixNano()
	if hw := c.maxNowNano.Load(); n < hw {
		c.stats.clockRegressions.Add(1)
		return hw
	}
	return n
}

// purgeLocked removes contributions whose deadlines have passed and
// returns the monotone view of now. Callers must hold mu.
func (c *Controller) purgeLocked(now time.Time) time.Time {
	now, _ = c.purgeQuietLocked(now, true)
	return now
}

// purgeQuietLocked is purgeLocked with the waiter wake optionally
// suppressed, for batch operations that coalesce their own single wake
// over everything the batch freed (purge-expired and released alike) —
// without it, a ReleaseAll under burst release hands out two tokens per
// batch and thrashes the FIFO baton. It also returns how many
// contributions expired so the caller knows a wake is owed.
func (c *Controller) purgeQuietLocked(now time.Time, wake bool) (time.Time, int) {
	now = c.monotoneLocked(now)
	expired := 0
	flushed := c.wheel.AdvanceTo(now.UnixNano(), func(e expiry.Entry) {
		removed := false
		for _, l := range c.ledgers {
			if l.Remove(coreID(e.ID)) {
				removed = true
			}
		}
		delete(c.levels, e.ID)
		if removed {
			expired++
		}
	})
	// Re-arm the lock-free gate only when the wheel moved or the stored
	// bound has been reached — earliest() scans buckets, so don't pay
	// for it on every uncontended admit.
	if flushed > 0 || c.nextExpiry.Load() <= now.UnixNano() {
		if at, ok := c.wheel.Earliest(); ok {
			c.nextExpiry.Store(at)
		} else {
			c.nextExpiry.Store(math.MaxInt64)
		}
	}
	if expired > 0 {
		c.stats.expired.Add(uint64(expired))
		c.publishUtilsLocked()
		if wake {
			c.wakeLocked()
		}
	}
	return now, expired
}

// coreID maps the request ID space onto the ledger's task.ID key space.
func coreID(id uint64) task.ID { return task.ID(id) }

// TryAdmit tests the request against the region and commits it on
// success. It is safe for concurrent use, allocation-free, and — when
// the test fails and no purge is due — lock-free: rejection under
// overload does not serialize on the controller's mutex.
func (c *Controller) TryAdmit(r Request) bool {
	if c.sh != nil {
		return c.sh.Admit(&r, true)
	}
	return c.admit(r, true, nil)
}

// admit runs one admission attempt. countReject controls whether a
// failure increments the rejection counter (AdmitWithin retries must
// not inflate it). enq, when non-nil, is queued FIFO under the same
// lock as a failed locked test, so a release between the test and the
// caller's sleep cannot be missed; passing enq disables the lock-free
// fast path (enqueueing needs the lock anyway).
func (c *Controller) admit(r Request, countReject bool, enq *waiter) bool {
	if r.Deadline <= 0 || len(r.Demands) != c.stages {
		if countReject {
			c.stats.rejected.Add(1)
		}
		return false
	}
	var stackRaw, stackUtils, stackScales [maxStackStages]float64
	var raw, utils, scales []float64
	if c.stages <= maxStackStages {
		raw, utils, scales = stackRaw[:c.stages], stackUtils[:c.stages], stackScales[:c.stages]
	} else {
		bufs := admitBufPool.Get().(*admitBufs)
		defer admitBufPool.Put(bufs)
		if cap(bufs.raw) < c.stages {
			bufs.raw = make([]float64, c.stages)
			bufs.utils = make([]float64, c.stages)
			bufs.scales = make([]float64, c.stages)
		}
		raw, utils, scales = bufs.raw[:c.stages], bufs.utils[:c.stages], bufs.scales[:c.stages]
	}
	invD := 1 / r.Deadline.Seconds()
	for j, dem := range r.Demands {
		raw[j] = dem.Seconds() * invD
	}

	// Optimistic lock-free reject: valid only while no purge is due
	// (the mirror then reflects every live contribution) and only to
	// reject — a passing optimistic test still re-runs under the lock,
	// so a stale mirror can never admit outside the region. The clock
	// sample is reused by the locked path; the handful of nanoseconds
	// it lags only anchors the deadline infinitesimally earlier, which
	// is conservative.
	var sampled int64
	var snapSeq uint64
	tested := false
	if enq == nil {
		sampled = c.nowMonotoneNano()
		if sampled < c.nextExpiry.Load() {
			if b, s, ok := c.readSnapshot(utils, scales); ok {
				sum := 0.0
				for j := range utils {
					sum += core.StageDelayFactor(utils[j] + raw[j]*scales[j])
				}
				if sum > b {
					if countReject {
						c.stats.rejected.Add(1)
					}
					return false
				}
				snapSeq, tested = s, true
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var now time.Time
	if sampled != 0 {
		now = time.Unix(0, sampled)
	} else {
		now = c.clock()
	}
	now = c.purgeLocked(now)
	// The locked re-test is skipped when the optimistic test passed and
	// the epoch is unchanged: every utilization or scale mutation
	// publishes (bumping the epoch) before releasing mu, so an equal
	// epoch proves the snapshot still matches the ledgers exactly.
	if !tested || c.seq.Load() != snapSeq {
		sum := 0.0
		for j, l := range c.ledgers {
			sum += core.StageDelayFactor(l.Utilization() + raw[j]*c.scales[j])
		}
		if sum > c.bound {
			if countReject {
				c.stats.rejected.Add(1)
			}
			if enq != nil {
				c.enqueueLocked(enq)
			}
			return false
		}
	}
	c.commitLocked(r, raw, now)
	c.publishUtilsLocked()
	return true
}

// commitLocked adds the request's contributions and schedules their
// expiry. Callers must hold mu, have verified the region test, and
// publish afterwards.
func (c *Controller) commitLocked(r Request, raw []float64, now time.Time) {
	for j, l := range c.ledgers {
		l.Add(coreID(r.ID), raw[j]*c.scales[j])
	}
	at := now.UnixNano() + int64(r.Deadline)
	c.wheel.Push(at, r.ID)
	if at < c.nextExpiry.Load() {
		c.nextExpiry.Store(at) // writers are serialized by mu: plain min
	}
	c.stats.admitted.Add(1)
}

// TryAdmitAll tests and commits a burst of requests under one lock
// acquisition and one purge, amortizing the admission overhead across a
// batch of arrivals. Requests are tested in order, each against the
// state left by its predecessors; out[i], when out is non-nil, reports
// request i's outcome. It returns the number admitted.
func (c *Controller) TryAdmitAll(rs []Request, out []bool) int {
	if out != nil && len(out) < len(rs) {
		panic(fmt.Sprintf("online: TryAdmitAll result slice len %d for %d requests", len(out), len(rs)))
	}
	if c.sh != nil {
		return c.sh.TryAdmitAll(rs, out)
	}
	var stackRaw [maxStackStages]float64
	var raw []float64
	if c.stages <= maxStackStages {
		raw = stackRaw[:c.stages]
	} else {
		bufs := admitBufPool.Get().(*admitBufs)
		defer admitBufPool.Put(bufs)
		if cap(bufs.raw) < c.stages {
			bufs.raw = make([]float64, c.stages)
		}
		raw = bufs.raw[:c.stages]
	}
	admitted := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.purgeLocked(c.clock())
	for i, r := range rs {
		ok := false
		if r.Deadline > 0 && len(r.Demands) == c.stages {
			invD := 1 / r.Deadline.Seconds()
			sum := 0.0
			for j, l := range c.ledgers {
				raw[j] = r.Demands[j].Seconds() * invD
				sum += core.StageDelayFactor(l.Utilization() + raw[j]*c.scales[j])
			}
			if sum <= c.bound {
				c.commitLocked(r, raw, now)
				admitted++
				ok = true
			}
		}
		if !ok {
			c.stats.rejected.Add(1)
		}
		if out != nil {
			out[i] = ok
		}
	}
	if admitted > 0 {
		c.publishUtilsLocked()
	}
	return admitted
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
// waiter. Nothing herds on a shared broadcast.
func (c *Controller) AdmitWithin(r Request, maxWait time.Duration) bool {
	if c.sh != nil {
		return c.admitWithinSharded(r, maxWait)
	}
	if r.Deadline <= 0 || len(r.Demands) != c.stages {
		c.stats.rejected.Add(1)
		return false
	}
	start := c.clock()
	waitDeadline := start.Add(maxWait)
	w := &waiter{ch: make(chan struct{}, 1)}
	for {
		now := c.clock()
		late := r
		late.Deadline = r.Deadline - now.Sub(start)
		if late.Deadline <= 0 {
			c.abandonWait(w)
			c.stats.rejected.Add(1)
			return false
		}
		timedOut := !now.Before(waitDeadline)
		enq := w
		if timedOut {
			enq = nil // last attempt: do not re-queue
		}
		if c.admit(late, false, enq) {
			// Pass the baton: the drop that woke us may have freed
			// room for the next waiter too.
			c.mu.Lock()
			c.wakeLocked()
			c.mu.Unlock()
			return true
		}
		if timedOut {
			c.abandonWait(w)
			c.stats.rejected.Add(1)
			return false
		}
		next := c.nextExpiry.Load()
		sleep := waitDeadline.Sub(now)
		if next != math.MaxInt64 {
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
	}
}

// admitWithinSharded is AdmitWithin over the sharded data plane. The
// shard controller has no single lock to atomically test-and-enqueue
// under, so the loop enqueues BEFORE testing (after the first, fast,
// unenqueued attempt): any capacity freed after the enqueue targets
// this waiter through the wake hook, and any freed between a failed
// test and the enqueue is caught by the enqueued re-test — a wakeup
// can never be lost.
func (c *Controller) admitWithinSharded(r Request, maxWait time.Duration) bool {
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
		if c.sh.Admit(&late, false) {
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
			w.woken = true
		case <-timer.C:
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
	}
}

// abandonWait removes w from the FIFO on the way out; a wake token that
// raced in is handed to the next waiter instead of being dropped.
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
func (c *Controller) MarkDeparted(stage int, id uint64) {
	if c.sh != nil {
		c.sh.MarkDeparted(stage, id)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledgers[stage].MarkDeparted(coreID(id))
}

// StageIdle performs the idle reset for a stage; call it when the
// stage's worker pool drains (no queued or running work).
func (c *Controller) StageIdle(stage int) {
	if c.sh != nil {
		c.sh.StageIdle(stage)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked(c.clock())
	if c.ledgers[stage].ResetIdle() > 0 {
		c.stats.idleResets.Add(1)
		c.publishUtilsLocked()
		c.wakeLocked()
	}
}

// SetStageScale sets a demand multiplier for future admissions at the
// stage — the self-healing hook for degraded stages: a replica running
// at half speed effectively doubles every request's computation time
// there, so scale 2 keeps the admission test honest until the stage
// recovers (scale 1 restores nominal). Already-admitted contributions
// are unchanged. scale must be positive and finite.
func (c *Controller) SetStageScale(stage int, scale float64) {
	if scale <= 0 || scale != scale || scale > 1e9 {
		panic(fmt.Sprintf("online: stage scale %v must be positive and finite", scale))
	}
	if c.sh != nil {
		c.sh.SetStageScale(stage, scale)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.scales[stage]
	c.scales[stage] = scale
	c.publishLocked()
	if scale < old {
		c.wakeLocked() // relaxed scaling may let a waiter in
	}
}

// StageScales returns the current per-stage demand multipliers.
func (c *Controller) StageScales() []float64 {
	out := make([]float64, c.stages)
	for j := range out {
		out[j] = c.StageScale(j)
	}
	return out
}

// StageScale returns stage j's demand multiplier without locking.
func (c *Controller) StageScale(j int) float64 {
	if c.sh != nil {
		return c.sh.StageScale(j)
	}
	return math.Float64frombits(c.scaleBits[j].Load())
}

// StageUtilization returns stage j's current synthetic utilization. The
// read is lock-free unless an expiry is due, in which case it takes the
// lock to purge first — so scrapes stay fresh without ever contending
// with admits on a healthy path.
func (c *Controller) StageUtilization(j int) float64 {
	if c.sh != nil {
		return c.sh.StageUtilization(j)
	}
	if c.nowMonotoneNano() < c.nextExpiry.Load() {
		return math.Float64frombits(c.utilBits[j].Load())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked(c.clock())
	return c.ledgers[j].Utilization()
}

// ReconcileResult reports what one reconciliation pass found.
type ReconcileResult struct {
	// Orphans is the number of leaked contributions reaped: ledger
	// entries with no pending expiry. They cannot arise through this
	// API's normal flow, but a crashed caller, a lost departure
	// callback combined with an application-level ledger bridge, or a
	// future bug would otherwise pin synthetic utilization forever and
	// starve admission.
	Orphans int
	// Expired is the number of contributions the accompanying purge
	// removed (deadline passed).
	Expired int
}

// Reconcile runs one watchdog pass: it purges expired contributions
// using the monotone clock (so skew cannot stall expiry) and reaps
// leaked contributions that no pending expiry covers. Embedding
// applications call it periodically (or via StartWatchdog) as a safety
// net; on a healthy controller it is a cheap no-op.
func (c *Controller) Reconcile() ReconcileResult {
	if c.sh != nil {
		// The sharded reconcile doubles as the slow rebalance tick; its
		// task table cannot leak orphans (a row and its charge are one
		// record), so only the purge count is meaningful.
		return ReconcileResult{Expired: c.sh.Reconcile()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.stats.expired.Load()
	c.purgeLocked(c.clock())
	res := ReconcileResult{Expired: int(c.stats.expired.Load() - before)}
	clear(c.reapSet)
	c.wheel.ForEach(func(e expiry.Entry) { c.reapSet[e.ID] = struct{}{} })
	for _, l := range c.ledgers {
		l.RangeTasks(func(id task.ID, _ float64) bool {
			if _, ok := c.reapSet[uint64(id)]; !ok {
				l.Remove(id)
				delete(c.levels, uint64(id))
				res.Orphans++
			}
			return true
		})
	}
	c.stats.reconciles.Add(1)
	if res.Orphans > 0 {
		c.stats.orphansReaped.Add(uint64(res.Orphans))
		c.publishUtilsLocked()
		c.wakeLocked()
	}
	return res
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

// Release drops the request's contribution on all stages immediately —
// call it when a request is cancelled or finishes well before its
// deadline and the caller prefers eager accounting over the idle reset.
// The pending expiry is unlinked from the wheel in O(1) at the same
// time, so release-heavy workloads never accumulate stale entries for
// the purge to wade through. Waiters are woken only when a contribution
// was actually removed; an already-expired or unknown ID is a silent
// no-op.
func (c *Controller) Release(id uint64) {
	if c.sh != nil {
		c.sh.Release(id)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(id)
}

// releaseLocked removes one request's contributions, its wheel entry,
// and its quality record; on success it republishes and wakes a waiter.
// Callers must hold mu. Reports whether a contribution was removed.
func (c *Controller) releaseLocked(id uint64) bool {
	removed := false
	for _, l := range c.ledgers {
		if l.Remove(coreID(id)) {
			removed = true
		}
	}
	if c.wheel.Remove(id) {
		c.stats.cancelled.Add(1)
	}
	delete(c.levels, id)
	if removed {
		c.publishUtilsLocked()
		c.wakeLocked()
	}
	return removed
}

// ReleaseAll drops the contributions of a burst of requests under one
// lock acquisition and one purge — the batch mirror of Release, for
// services that complete requests in bursts (e.g. a pipeline stage
// finishing a batch). It returns how many of the IDs still had a live
// contribution; already-expired or unknown IDs are silent no-ops. The
// mirror is republished and waiters woken once for the whole batch —
// including anything the accompanying purge expired, so a burst release
// hands out exactly one wake token, never two.
func (c *Controller) ReleaseAll(ids []uint64) int {
	if len(ids) == 0 {
		return 0
	}
	if c.sh != nil {
		return c.sh.ReleaseAll(ids)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, expired := c.purgeQuietLocked(c.clock(), false)
	released := 0
	cancelled := uint64(0)
	for _, id := range ids {
		removed := false
		for _, l := range c.ledgers {
			if l.Remove(coreID(id)) {
				removed = true
			}
		}
		if c.wheel.Remove(id) {
			cancelled++
		}
		delete(c.levels, id)
		if removed {
			released++
		}
	}
	if cancelled > 0 {
		c.stats.cancelled.Add(cancelled)
	}
	if released > 0 {
		c.publishUtilsLocked()
	}
	if released > 0 || expired > 0 {
		c.wakeLocked()
	}
	return released
}

// MarkDepartedAll records that a burst of requests finished their work
// at the stage under one lock acquisition and one purge — the batch
// mirror of MarkDeparted. Contributions whose deadlines already passed
// are purged rather than marked.
func (c *Controller) MarkDepartedAll(stage int, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	if c.sh != nil {
		c.sh.MarkDepartedAll(stage, ids)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked(c.clock())
	for _, id := range ids {
		c.ledgers[stage].MarkDeparted(coreID(id))
	}
}

// Utilizations returns the current per-stage synthetic utilization. The
// read is lock-free (seqlock snapshot) unless an expiry is due, in
// which case the locked path purges first.
func (c *Controller) Utilizations() []float64 {
	if c.sh != nil {
		return c.sh.Utilizations()
	}
	us := make([]float64, c.stages)
	if c.nowMonotoneNano() < c.nextExpiry.Load() {
		if _, _, ok := c.readSnapshot(us, nil); ok {
			return us
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked(c.clock())
	for j, l := range c.ledgers {
		us[j] = l.Utilization()
	}
	return us
}

// Headroom returns how much additional synthetic utilization the stage
// can absorb right now.
func (c *Controller) Headroom(stage int) float64 {
	us := c.Utilizations()
	return c.Region().Headroom(us, stage)
}

// Bound returns the current admission bound α·(1 − Σβ_j) without
// locking (seqlock mirror read).
func (c *Controller) Bound() float64 {
	if c.sh != nil {
		return c.sh.Bound()
	}
	return math.Float64frombits(c.boundBits.Load())
}

// Region returns a copy of the controller's current feasible region
// (the base configuration, or the latest SetRegionInputs update).
func (c *Controller) Region() core.Region {
	if c.sh != nil {
		return c.sh.Region()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.region
	if r.Betas != nil {
		r.Betas = append([]float64(nil), r.Betas...)
	}
	return r
}

// SetRegionInputs replaces the region's urgency-inversion parameter α
// and per-stage blocking terms β_j at runtime — the actuator of the
// adaptive estimation loop (internal/adapt). alpha must be in (0, 1];
// betas, when non-nil, must have one non-negative entry per stage (nil
// keeps the current blocking terms). The new bound α·(1 − Σβ_j) is
// published through the seqlock together with the utilization mirror,
// so lock-free reject paths always test against a bound consistent with
// the snapshot they read; in-flight optimistic passes are invalidated
// by the epoch bump and re-tested under the lock. Already-admitted
// contributions are unchanged. When the bound relaxes, one waiter is
// woken to retry.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	if c.sh != nil {
		c.sh.SetRegionInputs(alpha, betas)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.region.WithAlpha(alpha)
	if betas != nil {
		r = r.WithBetas(betas)
	}
	old := c.bound
	c.region = r
	c.bound = r.Bound()
	c.publishLocked()
	if c.bound > old {
		c.wakeLocked()
	}
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

// Stats returns a snapshot of the counters without taking the lock
// (sharded mode sums per-shard counters under each shard's lock in
// turn).
func (c *Controller) Stats() Stats {
	if c.sh != nil {
		ss := c.sh.Stats()
		return Stats{
			Admitted:         ss.Admitted,
			Rejected:         ss.Rejected,
			Expired:          ss.Expired,
			IdleResets:       ss.IdleResets,
			Reconciles:       ss.Reconciles,
			ClockRegressions: ss.ClockRegressions,
			Degraded:         ss.Degraded,
			Trimmed:          ss.Trimmed,
			Restored:         ss.Restored,
			Cancelled:        ss.Cancelled,
			Steals:           ss.Steals,
			GlobalFallbacks:  ss.GlobalFallbacks,
			Rebalances:       ss.Rebalances,
		}
	}
	return Stats{
		Admitted:         c.stats.admitted.Load(),
		Rejected:         c.stats.rejected.Load(),
		Expired:          c.stats.expired.Load(),
		IdleResets:       c.stats.idleResets.Load(),
		Reconciles:       c.stats.reconciles.Load(),
		OrphansReaped:    c.stats.orphansReaped.Load(),
		ClockRegressions: c.stats.clockRegressions.Load(),
		Degraded:         c.stats.degraded.Load(),
		Trimmed:          c.stats.trimmed.Load(),
		Restored:         c.stats.restored.Load(),
		Cancelled:        c.stats.cancelled.Load(),
	}
}
