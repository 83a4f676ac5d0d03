package online

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/expiry"
	"feasregion/internal/task"
	"feasregion/internal/tasktable"
)

// Clock abstracts time.Now for testing. A nil clock selects the
// monotonic fast path: timestamps are derived from a fixed epoch plus
// time.Since, which skips the wall-clock composition (roughly half the
// cost of time.Now on VM clocksources) and can never step backwards.
type Clock func() time.Time

// Request describes one admission request: per-stage computation-time
// estimates and a relative end-to-end deadline.
type Request struct {
	// ID must be unique among in-flight requests (e.g. a request
	// counter); it keys departure marking and release. The all-ones ID
	// is rejected as malformed.
	ID uint64
	// Deadline is the relative end-to-end deadline.
	Deadline time.Duration
	// Demands are per-stage computation-time estimates, one per stage,
	// each non-negative.
	Demands []time.Duration
	// Optional, when non-nil, marks the trailing portion of each stage's
	// demand as optional (imprecise computation): TryAdmitQuality may
	// admit the request with Optional[j] scaled down by the quality
	// ladder. Each entry must be in
	// [0, Demands[j]]. Nil means the request is rigid — all demand
	// mandatory.
	Optional []time.Duration
}

// wheelGranularity is the expiry wheel's level-0 bucket width. A purge
// may run up to one bucket late, so capacity release lags a deadline by
// at most ~1ms — conservative (the region test stays sound) and
// invisible next to typical service deadlines.
const wheelGranularity = time.Millisecond

// maxStackStages bounds the stage count served by stack scratch; wider
// pipelines draw from scratchPool so every path stays allocation-free.
const maxStackStages = 8

var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// scratch carves n vectors of c.stages floats out of stack when they
// fit (they do up to maxStackStages stages, given n·maxStackStages
// floats), else out of a pooled buffer that the caller returns with
// scratchPool.Put when pooled is non-nil. Pooled memory is not zeroed.
func (c *Controller) scratch(stack []float64, n int) (buf []float64, pooled *[]float64) {
	need := n * c.stages
	if need <= len(stack) {
		return stack[:need], nil
	}
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < need {
		*p = make([]float64, need)
	}
	return (*p)[:need], p
}

// Stats counts admission outcomes and self-healing activity.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// GateRejects counts the rejections, included in Rejected, that the
	// lock-free overload gate decided without taking the lock.
	GateRejects uint64
	// Expired counts contributions removed by the lazy deadline purge.
	Expired uint64
	// IdleResets counts StageIdle calls that freed at least one
	// contribution.
	IdleResets uint64
	// Reconciles counts watchdog/reconciliation passes.
	Reconciles uint64
	// ClockRegressions counts observations of the wall clock stepping
	// backwards (VM migration, NTP correction, injected skew). The
	// purge clock is monotone, so regressions cannot stall expiry.
	ClockRegressions uint64
	// Degraded counts admissions that entered below full quality via
	// TryAdmitQuality's fallback search.
	Degraded uint64
	// Cancelled counts the lazy discards of expiry entries whose request
	// had been released (or re-admitted with a new deadline) before the
	// entry came due: Release leaves the entry behind, and the purge
	// drops it when it no longer matches the task table.
	Cancelled uint64
	// Steals, GlobalFallbacks and Rebalances are always zero; they
	// stay only because the benchmark harness (bench/) reads them.
	Steals          uint64
	GlobalFallbacks uint64
	Rebalances      uint64
}

// Controller is a thread-safe wall-clock admission controller enforcing
// the multi-dimensional feasible region: a core.Engine (the region, its
// state and the one region test) under one lock, plus the wall clock,
// an expiry wheel and a lock-free reject gate in front of the lock
// under sustained overload. The zero value is not usable; construct
// with New.
type Controller struct {
	stages int

	clock     Clock
	epoch     time.Time
	epochNano int64

	// The engine's bound and per-stage demand multipliers, mirrored
	// in atomics for the lock-free gate and getters.
	boundBits atomic.Uint64
	scaleBits []atomic.Uint64

	// Overload reject gate: after the exact test rejects, it publishes
	// the per-stage utilizations as lower bounds (seqlock). Until any
	// capacity is freed (freedGen) or a purge comes due, a request whose
	// demand pushes even those lower bounds past the bound can be
	// rejected lock-free.
	gateArmed    atomic.Bool
	gateSeq      atomic.Uint64
	gateFreedGen atomic.Uint64
	gateBits     []atomic.Uint64
	freedGen     atomic.Uint64

	// The locked state below is written by every admit; the pad keeps it
	// off the cache line of the gate state that every lock-free reject
	// reads.
	_ [64]byte

	mu sync.Mutex

	// eng holds the region, the demand scales and the contributions: one
	// row per admitted request stamped with its absolute deadline, with
	// per-stage sums over the reserved floors. st is eng's state.
	eng core.Engine
	st  *tasktable.State
	lvl []float64 // admitReq's scratch: the demand vector at a quality level

	whl    *expiry.Wheel
	origin int64 // the wheel's tick-0 time (UnixNano)
	maxNow int64 // monotone high-water mark of observed time

	// staged holds freshly committed expiry entries that have not been
	// filed into the wheel yet. A request released before the next
	// purge — the common case on the hot path — has its entry dropped
	// at the drain's (id, at) match and never pays wheel bucket math.
	// Invariant: the wheel cursor never advances while an entry sits
	// here (every purge drains first), so a deferred Push files at the
	// same tick a commit-time Push would have, and expiry timing is
	// bit-identical to the eager scheme.
	staged []expiry.Entry

	// nextExp gates the purge: the earliest time (UnixNano) a purge can
	// flush a wheel or staged entry — the end of its level-0 bucket —
	// math.MaxInt64 when none. Before it, a purge flushes nothing.
	// Written under mu, read without it (admit path, reject gate).
	nextExp atomic.Int64

	// Counters guarded by mu.
	admitted, rejected, expired, cancelled uint64
	degraded, clockRegressions             uint64

	// The counters below are written on every lock-free reject; the pad
	// keeps them off the locked state's cache lines.
	_ [64]byte

	rejectedInvalid atomic.Uint64
	rejectedGate    atomic.Uint64
	reconciles      atomic.Uint64
	idleResets      atomic.Uint64
}

// stagedCap bounds the staging buffer (4 KiB of entries); a commit
// finding it full drains it into the wheel inline, so sustained
// admission with no purge due cannot grow it without bound.
const stagedCap = 256

// Config bundles the optional knobs of NewWithConfig. The zero value
// reproduces New(region, nil, nil).
type Config struct {
	// Reserved, when non-nil, sets per-stage reserved utilization
	// floors (one entry per stage, each in [0, 1)).
	Reserved []float64
	// Clock overrides time.Now (tests, simulation adapters).
	Clock Clock
}

// New builds a controller for the given region. reserved, when non-nil,
// sets per-stage reserved utilization floors. clock may be nil
// (monotonic fast path).
func New(region core.Region, reserved []float64, clock Clock) *Controller {
	return NewWithConfig(region, Config{Reserved: reserved, Clock: clock})
}

// NewWithConfig builds a controller with the full option set.
func NewWithConfig(region core.Region, cfg Config) *Controller {
	c := &Controller{
		stages:    region.Stages,
		clock:     cfg.Clock,
		eng:       core.NewEngine(region, cfg.Reserved),
		scaleBits: make([]atomic.Uint64, region.Stages),
		gateBits:  make([]atomic.Uint64, region.Stages),
		lvl:       make([]float64, region.Stages),
		staged:    make([]expiry.Entry, 0, stagedCap),
	}
	c.st = c.eng.State()
	now := time.Now()
	if cfg.Clock != nil {
		now = cfg.Clock()
	} else {
		c.epoch, c.epochNano = now, now.UnixNano()
	}
	c.whl = expiry.New(wheelGranularity, now)
	c.origin = now.UnixNano()
	c.maxNow = now.UnixNano()
	c.boundBits.Store(math.Float64bits(c.eng.Bound()))
	for j := range c.scaleBits {
		c.scaleBits[j].Store(math.Float64bits(1))
	}
	c.nextExp.Store(math.MaxInt64)
	return c
}

func (c *Controller) nowNano() int64 {
	if c.clock != nil {
		return c.clock().UnixNano()
	}
	return c.epochNano + int64(time.Since(c.epoch))
}

// noteFreed invalidates the overload reject gate. Must be called while
// holding mu, so it is ordered against the gate's arming.
func (c *Controller) noteFreed() {
	if c.gateArmed.Load() {
		c.freedGen.Add(1)
	}
}

// monotoneLocked folds a clock observation into the monotone high-water
// mark; regressions (injected skew, stepped wall clocks) are counted and
// clamped so expiry can never stall. Callers hold mu.
func (c *Controller) monotoneLocked(now int64) int64 {
	if now < c.maxNow {
		c.clockRegressions++
		return c.maxNow
	}
	c.maxNow = now
	return now
}

// drainStagedLocked sifts the staging buffer: entries whose table row
// is gone (released, or the ID was re-admitted with a new deadline) are
// dropped as lazy cancellations without ever touching the wheel; live
// ones are filed for flush. Callers hold mu.
func (c *Controller) drainStagedLocked() {
	for _, e := range c.staged {
		slot, ok := c.st.Lookup(e.ID)
		if !ok || c.st.Stamp(slot) != e.At {
			c.cancelled++
			continue
		}
		c.whl.Push(e.At, e.ID)
	}
	c.staged = c.staged[:0]
}

// purgeLocked flushes due wheel entries against the table: an entry
// whose (id, deadline) matches a row removes the row and credits its
// contributions; a mismatch is a lazily-cancelled stale entry. Callers
// hold mu and pass a monotone now. Returns how many live rows expired.
func (c *Controller) purgeLocked(mnow int64) int {
	if len(c.staged) > 0 {
		c.drainStagedLocked()
	}
	expired := 0
	flushed := c.whl.AdvanceTo(mnow, func(e expiry.Entry) {
		slot, ok := c.st.Lookup(e.ID)
		if !ok || c.st.Stamp(slot) != e.At {
			c.cancelled++
			return
		}
		if c.st.Drop(slot) {
			expired++
		}
	})
	if flushed > 0 || c.nextExp.Load() <= mnow {
		if at, ok := c.whl.NextFlush(); ok {
			c.nextExp.Store(at)
		} else {
			c.nextExp.Store(math.MaxInt64)
		}
	}
	if expired > 0 {
		c.expired += uint64(expired)
		c.noteFreed()
	}
	return expired
}

// purgeNowLocked folds one clock sample into the monotone view and
// flushes what is due. Callers hold mu.
func (c *Controller) purgeNowLocked() int {
	return c.purgeLocked(c.monotoneLocked(c.nowNano()))
}

// purgeDueLocked folds one clock sample into the monotone view and
// flushes the wheel when an expiry is due. Callers hold mu. Returns the
// monotone now.
func (c *Controller) purgeDueLocked() int64 {
	mnow := c.monotoneLocked(c.nowNano())
	if c.nextExp.Load() <= mnow {
		c.purgeLocked(mnow)
	}
	return mnow
}

// commitLocked inserts the admitted row, charging the engine the demand
// vector v (the request's at level lv), and schedules the row's expiry
// at the absolute deadline at. A degraded admit (hasOpt, lv below full
// quality) records lv. Callers hold mu and have verified the region
// test.
func (c *Controller) commitLocked(id uint64, at int64, v []float64, hasOpt bool, lv int) {
	level := uint8(task.QualityLevels)
	if hasOpt && lv < task.QualityLevels {
		level = uint8(lv)
		c.degraded++
	}
	c.eng.Commit(id, at, level, v)
	if len(c.staged) >= stagedCap {
		c.drainStagedLocked()
	}
	c.staged = append(c.staged, expiry.Entry{At: at, ID: id})
	// The wheel flushes the entry once its level-0 bucket ends. at lies
	// past the cursor, so the entry is never filed ripe.
	const g = int64(wheelGranularity)
	if flush := at - (at-c.origin)%g + g; flush < c.nextExp.Load() {
		c.nextExp.Store(flush)
	}
	c.admitted++
}

// TryAdmit tests the request against the region and commits it on
// success. It is safe for concurrent use, allocation-free, and — under
// sustained overload, while no capacity has been freed and no purge is
// due — lock-free: rejection does not serialize on the controller. A
// purge is due only once the earliest deadline's 1 ms expiry bucket has
// ended, since before that it could free nothing.
func (c *Controller) TryAdmit(r Request) bool {
	return c.admit(&r, nil)
}

// TryAdmitValue is TryAdmit that, on admission, also returns the region
// value Σ_j f(U_j) right after the commit: the value RegionValue would
// read next, computed inside the admit's own critical section, which
// saves RegionValue's second lock round. A cluster replica publishes
// bound − value from it.
func (c *Controller) TryAdmitValue(r Request) (ok bool, value float64) {
	ok = c.admit(&r, &value)
	return ok, value
}

// admit is TryAdmit by reference; when value is non-nil and the request
// is admitted, *value receives the post-admit region value.
func (c *Controller) admit(r *Request, value *float64) bool {
	var stack [maxStackStages]float64
	raw, pooled := c.scratch(stack[:], 1)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	if _, ok := c.vectors(r, raw, nil); !ok {
		c.rejectedInvalid.Add(1)
		return false
	}
	_, ok := c.admitReq(r.ID, int64(r.Deadline), raw, nil, task.QualityLevels, value)
	return ok
}

// vectors converts the request into per-stage synthetic utilization
// demand/deadline (raw) and, when opt is non-nil, its optional portion.
// It reports false on a malformed request: a non-positive deadline, a
// demand count other than the stage count, a negative demand, the
// reserved all-ones ID, or — when opt is requested — an Optional entry
// outside [0, Demands[j]] or of the wrong arity.
func (c *Controller) vectors(r *Request, raw, opt []float64) (hasOpt, ok bool) {
	if r.Deadline <= 0 || len(r.Demands) != c.stages || r.ID == ^uint64(0) ||
		(opt != nil && r.Optional != nil && len(r.Optional) != c.stages) {
		return false, false
	}
	invD := 1 / r.Deadline.Seconds()
	for j, dem := range r.Demands {
		if dem < 0 {
			return false, false
		}
		raw[j] = dem.Seconds() * invD
		if opt == nil {
			continue
		}
		opt[j] = 0
		if r.Optional != nil {
			if r.Optional[j] < 0 || r.Optional[j] > dem {
				return false, false
			}
			opt[j] = r.Optional[j].Seconds() * invD
		}
		if opt[j] > 0 {
			hasOpt = true
		}
	}
	return hasOpt, true
}

// admitReq decides one well-formed request at quality maxLevel (opt nil
// means rigid). The lock-free gate goes first, so sustained overload
// rejects without a lock. Past it is the engine's quality search under
// mu; a reject arms the gate. Returns the admitted level. On admit, a
// non-nil value receives the region value right after the commit, as
// RegionValue computes it, so a publishing caller needs no second lock
// round.
func (c *Controller) admitReq(id uint64, deadline int64, raw, opt []float64, maxLevel int, value *float64) (int, bool) {
	if c.gateRejects(raw, opt) {
		c.rejectedGate.Add(1)
		return 0, false
	}
	c.mu.Lock()
	mnow := c.purgeDueLocked()
	lv, v, ok := c.eng.FitLevel(maxLevel, opt != nil, func(lv int) []float64 {
		// Into c.lvl even when rigid: handing back raw itself would move
		// the caller's stack scratch to the heap.
		for j := range c.lvl {
			c.lvl[j] = rawAt(raw, opt, j, lv)
		}
		return c.lvl
	})
	if ok {
		c.commitLocked(id, mnow+deadline, v, opt != nil, lv)
		if value != nil {
			*value = c.eng.Value()
		}
	} else {
		c.rejected++
		c.armGateLocked()
	}
	c.mu.Unlock()
	return lv, ok
}

// armGateLocked publishes the per-stage utilizations as the overload
// reject gate's snapshot. Callers hold mu, so no capacity-freeing
// critical section can be concurrent with the arming: any later free
// acquires mu, observes gateArmed, and bumps freedGen — which is
// exactly the invalidation the gate checks.
func (c *Controller) armGateLocked() {
	c.gateSeq.Add(1) // odd: snapshot inconsistent
	for j := range c.gateBits {
		c.gateBits[j].Store(math.Float64bits(c.st.Util(j)))
	}
	c.gateFreedGen.Store(c.freedGen.Load())
	c.gateSeq.Add(1) // even: consistent
	c.gateArmed.Store(true)
}

// gateRejects is the lock-free overload reject: valid only while the
// gate is armed, no capacity has been freed since its snapshot, and no
// purge is due (nextExp, the end of the earliest deadline's wheel
// bucket, has not passed). The snapshot utilizations are lower bounds
// on the current ones (admits only grow them), so failing the engine's
// test (core.Fits) at the snapshot proves the exact test would reject
// too. The probe is mandatory-only demand (opt nil = rigid), the
// quality cascade's weakest test, so a gate reject implies every level
// fails.
func (c *Controller) gateRejects(raw, opt []float64) bool {
	if !c.gateArmed.Load() {
		return false
	}
	g := c.freedGen.Load()
	if c.gateFreedGen.Load() != g {
		c.gateArmed.Store(false) // stale: stop taxing release paths
		return false
	}
	if now := c.nowNano(); c.nextExp.Load() <= now {
		return false // a purge is due: capacity may free
	}
	seq := c.gateSeq.Load()
	if seq&1 != 0 {
		return false
	}
	var stack [3 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 3)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	n := c.stages
	u, s, v := buf[:n], buf[n:2*n], raw
	for j := range u {
		u[j] = math.Float64frombits(c.gateBits[j].Load())
		s[j] = c.StageScale(j)
	}
	if c.gateSeq.Load() != seq || c.freedGen.Load() != g {
		return false
	}
	if opt != nil {
		v = buf[2*n:]
		for j := range v {
			v[j] = rawAt(raw, opt, j, 0)
		}
	}
	return !core.Fits(u, v, s, c.Bound())
}

// Release drops the request's contribution on all stages immediately —
// call it when a request is cancelled or finishes well before its
// deadline and the caller prefers eager accounting over the idle reset.
// It then purges what has expired. The released row's wheel entry is
// discarded lazily: at that purge's drain if the admit's entry is
// still staged (so an admit released at once never enters the wheel),
// else at its flush (the table no longer matches it). An expired or
// unknown ID is a silent no-op. It returns the region value right
// after, from the same critical section and clock sample: the value
// RegionValue would read next, which a cluster replica publishes
// without a second lock round.
func (c *Controller) Release(id uint64) (value float64) {
	c.mu.Lock()
	c.releaseLocked(id)
	c.purgeNowLocked()
	value = c.eng.Value()
	c.mu.Unlock()
	return value
}

// releaseLocked removes one row; reports whether any stage still
// charged it. Callers hold mu.
func (c *Controller) releaseLocked(id uint64) bool {
	slot, ok := c.st.Lookup(id)
	if !ok {
		return false
	}
	removed := c.st.Drop(slot)
	if removed {
		c.noteFreed()
	}
	return removed
}

// ReleaseAll drops a burst of contributions — the batch mirror of
// Release, for services that complete requests in bursts — with one
// lock acquisition and one purge. Like Release it releases first, so
// the purge's drain discards the batch's staged expiry entries, and an
// ID whose deadline passed unpurged counts as released, not expired.
// Returns how many IDs still had a live contribution.
func (c *Controller) ReleaseAll(ids []uint64) int {
	if len(ids) == 0 {
		return 0
	}
	released := 0
	c.mu.Lock()
	for _, id := range ids {
		if c.releaseLocked(id) {
			released++
		}
	}
	c.purgeNowLocked()
	c.mu.Unlock()
	return released
}

// MarkDeparted records that the request finished its work at the stage,
// making its contribution eligible for the stage's idle reset.
func (c *Controller) MarkDeparted(stage int, id uint64) {
	c.mu.Lock()
	if slot, ok := c.st.Lookup(id); ok {
		c.st.MarkDeparted(slot, stage)
	}
	c.mu.Unlock()
}

// StageIdle performs the paper's idle reset for a stage: rows that
// departed the stage stop charging it (cleared rows stay in the table
// until their deadline expiry). Call it when the stage's worker pool
// drains (no queued or running work). The reset costs O(1), whatever
// departed and however large the table. It returns the region value
// right after the reset, from the same critical section and clock
// sample: the value RegionValue would read next, which a cluster
// replica publishes without a second lock round.
func (c *Controller) StageIdle(stage int) (value float64) {
	c.mu.Lock()
	c.purgeNowLocked()
	if c.st.ResetIdle(stage) > 0 {
		c.noteFreed()
		c.idleResets.Add(1)
	}
	value = c.eng.Value()
	c.mu.Unlock()
	return value
}

// StageUtilization returns stage j's current synthetic utilization,
// purged first.
func (c *Controller) StageUtilization(j int) float64 {
	c.mu.Lock()
	c.purgeNowLocked()
	u := c.st.Util(j)
	c.mu.Unlock()
	return u
}

// Utilizations returns the current per-stage synthetic utilizations,
// purged first, as one consistent cut.
func (c *Controller) Utilizations() []float64 {
	c.mu.Lock()
	c.purgeNowLocked()
	us := slices.Clone(c.st.Utils())
	c.mu.Unlock()
	return us
}

// StageScale returns stage j's demand multiplier without locking.
func (c *Controller) StageScale(j int) float64 {
	return math.Float64frombits(c.scaleBits[j].Load())
}

// Bound returns the current admission bound α·(1−Σβ) without locking.
func (c *Controller) Bound() float64 {
	return math.Float64frombits(c.boundBits.Load())
}

// RegionValue returns the region value Σ_j f(U_j), summed in stage
// order, together with the admission bound — one clock sample, one
// purge and one lock round, without allocating. bound − value is the
// headroom a cluster replica publishes.
func (c *Controller) RegionValue() (value, bound float64) {
	c.mu.Lock()
	c.purgeNowLocked()
	value = c.eng.Value()
	c.mu.Unlock()
	return value, c.Bound()
}

// Region returns a copy of the controller's current feasible region
// (the base configuration, or the latest SetRegionInputs update).
func (c *Controller) Region() core.Region {
	c.mu.Lock()
	r := c.eng.Region()
	c.mu.Unlock()
	r.Betas = slices.Clone(r.Betas)
	return r
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	st := Stats{
		Rejected:    c.rejectedInvalid.Load() + c.rejectedGate.Load(),
		GateRejects: c.rejectedGate.Load(),
		Reconciles:  c.reconciles.Load(),
		IdleResets:  c.idleResets.Load(),
	}
	c.mu.Lock()
	st.Admitted = c.admitted
	st.Rejected += c.rejected
	st.Expired = c.expired
	st.ClockRegressions = c.clockRegressions
	st.Degraded = c.degraded
	st.Cancelled = c.cancelled
	c.mu.Unlock()
	return st
}
