package shard

import (
	"fmt"
	"math"
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
// estimates and a relative end-to-end deadline. online.Request aliases
// this type, so the two controllers share request values freely.
type Request struct {
	// ID must be unique among in-flight requests (e.g. a request
	// counter); it keys departure marking and release. The all-ones ID
	// is rejected as malformed.
	ID uint64
	// Deadline is the relative end-to-end deadline.
	Deadline time.Duration
	// Demands are per-stage computation-time estimates, one per stage.
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

// MaxShards caps the shard count; Shards values are rounded up to a
// power of two and clamped to [1, MaxShards].
const MaxShards = 64

// maxStealProbes bounds how many peers a locally-rejected admit may
// lock while gathering headroom before falling through to the exact
// global pass.
const maxStealProbes = 3

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

// Stats counts admission outcomes, self-healing activity, and sharding
// control traffic. online.Stats aliases it.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// GateRejects counts the rejections, included in Rejected, that the
	// lock-free overload gate decided without taking a shard lock.
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
	// Steals counts admits that succeeded only after transferring
	// headroom from peer shards.
	Steals uint64
	// GlobalFallbacks counts exact all-shard passes (the last resort
	// before a true reject at K>1).
	GlobalFallbacks uint64
	// Rebalances counts cap re-partitions: one per global pass, per
	// Reconcile tick, and per region/quality mutation that moves caps.
	// Steals, GlobalFallbacks, and Rebalances stay zero at K=1, which
	// has no partition.
	Rebalances uint64
}

// shard is one partition of the region bound. Each shard admits against
// its private per-stage caps with its own mutex, table, and timer
// wheel, so the happy path touches exactly one shard's cache lines.
// The trailing pad keeps two shards' hot state off a shared line even
// when the allocator packs them.
type shard struct {
	mu sync.Mutex

	// st holds the local contributions, one row per admitted request
	// stamped with its absolute deadline, with per-stage sums over this
	// shard's share of the reserved floors (reserved_j / K).
	st     tasktable.State
	caps   []float64 // per-stage budget; invariant: st.Util(j) ≤ caps[j]
	scales []float64 // per-stage demand multipliers (copies, kept equal)
	vec    []float64 // commitLocked's scratch: the vector it charges

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

	// Counters are plain (guarded by mu); Stats sums across shards.
	admitted, rejected, expired, cancelled uint64
	degraded, clockRegressions             uint64
	// releasedTraffic weights the watchdog rebalance: shards that
	// released or expired the most capacity since the last re-partition
	// get the larger slack share.
	releasedTraffic uint64

	// nextExp gates the purge: the earliest time (UnixNano) a purge can
	// flush a wheel or staged entry — the end of its level-0 bucket —
	// math.MaxInt64 when none. Before it, a purge flushes nothing.
	// Written under mu, read without it (admit fast path, reject gate,
	// steal probe).
	nextExp atomic.Int64

	// slackHint publishes min_j(caps[j]−st.Util(j)) with hysteresis so
	// peers can order steal probes richest-first without locking. Stale
	// by up to 1/4 relative — it is an ordering hint, never a charge.
	// hintOps amortizes the refresh: plain commits and releases only
	// recompute the min-scan every hintEvery-th mutation (a misordered
	// probe costs one extra bounded attempt, never soundness); purge
	// expiries, steals, and repartitions refresh eagerly because they
	// move capacity in bulk.
	slackHint atomic.Uint64
	hintOps   uint8

	_ [64]byte
}

// hintEvery is the hint-refresh stride on the plain admit/release path.
const hintEvery = 8

// stagedCap bounds the staging buffer (4 KiB of entries per shard); a
// commit finding it full drains it into the wheel inline, so sustained
// admission with no purge due cannot grow it without bound.
const stagedCap = 256

// drainStagedLocked sifts the staging buffer: entries whose table row
// is gone (released, or the ID was re-admitted with a new deadline) are
// dropped as lazy cancellations without ever touching the wheel; live
// ones are filed for flush. Callers hold s.mu.
func (s *shard) drainStagedLocked() {
	for _, e := range s.staged {
		slot, ok := s.st.Lookup(e.ID)
		if !ok || s.st.Stamp(slot) != e.At {
			s.cancelled++
			continue
		}
		s.whl.Push(e.At, e.ID)
	}
	s.staged = s.staged[:0]
}

// noteHintOpLocked defers the slack-hint min-scan to every
// hintEvery-th plain mutation. Callers hold s.mu.
func (s *shard) noteHintOpLocked() {
	if s.hintOps++; s.hintOps >= hintEvery {
		s.hintOps = 0
		s.updateHintLocked()
	}
}

// updateHintLocked republishes the slack hint when it drifted by more
// than 1/4 relative (or crossed zero) — rare under steady churn, so the
// hot path almost never pays the atomic store.
func (s *shard) updateHintLocked() {
	min := math.Inf(1)
	for j := range s.caps {
		if sl := s.caps[j] - s.st.Util(j); sl < min {
			min = sl
		}
	}
	if min < 0 {
		min = 0
	}
	old := math.Float64frombits(s.slackHint.Load())
	if min > old*0.75 && min < old*1.25 && (min == 0) == (old == 0) {
		return
	}
	s.slackHint.Store(math.Float64bits(min))
}

// Controller is a wall-clock admission controller enforcing the
// feasible region, the data plane behind online.Controller. With one
// shard, admission is one exact region test under one lock. With K>1
// the Theorem-1 bound is partitioned across the shards: each shard
// owns per-stage utilization caps with Σ_k caps_jk = Cap_j and
// Σ_j f(Cap_j) ≤ α·(1−Σβ). A local admit charges only its home shard
// (one uncontended lock, no shared cache lines); a local reject steals
// headroom from the richest peers, and an exact all-shard pass drains
// every shard's slack before a true reject — so every K admits exactly
// the requests the single exact test admits (see DESIGN.md §11 for the
// soundness and work-conservation arguments).
type Controller struct {
	stages int
	k      int
	shift  uint // shard index = (id*hashMul) >> shift
	shards []*shard

	clock     Clock
	epoch     time.Time
	epochNano int64

	// gmu serializes global operations (exact pass, rebalance, region
	// and scale mutations). Lock order: gmu, then shards in index
	// order; the steal path holds at most one shard lock at a time and
	// never gmu.
	gmu    sync.Mutex
	region core.Region
	bound  float64

	boundBits atomic.Uint64
	scaleBits []atomic.Uint64

	// gen is the cap-partition generation. Every re-partition bumps it
	// (under gmu + all shard locks); a steal commits its transferred
	// headroom only if gen is unchanged since the transfer began,
	// otherwise the transfer is abandoned (a pure capacity shrink —
	// conservative) and the re-partition that raced has already rebuilt
	// every cap from the true utilizations.
	gen atomic.Uint64

	// Overload reject gate: after an exact test rejects, it publishes
	// the per-stage global utilizations as lower bounds (seqlock).
	// Until any capacity is freed (freedGen) or a purge comes due, a
	// request whose demand pushes even those lower bounds past the
	// bound can be rejected lock-free.
	gateArmed    atomic.Bool
	gateSeq      atomic.Uint64
	gateFreedGen atomic.Uint64
	gateBits     []atomic.Uint64
	freedGen     atomic.Uint64

	// The counters below are written on every lock-free reject; the pad
	// keeps them off the cache line of the gate state that every reject
	// reads.
	_ [64]byte

	rejectedInvalid atomic.Uint64
	rejectedGate    atomic.Uint64
	steals          atomic.Uint64
	globalFallbacks atomic.Uint64
	rebalances      atomic.Uint64
	reconciles      atomic.Uint64
	idleResets      atomic.Uint64
}

// New builds a sharded controller for the region with k shards (rounded
// up to a power of two, clamped to [1, MaxShards]). reserved, when
// non-nil, sets per-stage reserved utilization floors, split evenly
// across shards. clock may be nil (monotonic fast path).
func New(region core.Region, reserved []float64, clock Clock, k int) *Controller {
	if reserved != nil && len(reserved) != region.Stages {
		panic(fmt.Sprintf("shard: %d reserved values for %d stages", len(reserved), region.Stages))
	}
	for _, v := range reserved {
		if v < 0 || v >= 1 {
			panic(fmt.Sprintf("shard: reserved utilization %v outside [0, 1)", v))
		}
	}
	if k < 1 {
		k = 1
	}
	if k > MaxShards {
		k = MaxShards
	}
	pow := 1
	bits := uint(0)
	for pow < k {
		pow <<= 1
		bits++
	}
	k = pow

	c := &Controller{
		stages:    region.Stages,
		k:         k,
		shift:     64 - bits, // shift 64 on uint64 yields 0 in Go: k=1 → shard 0
		clock:     clock,
		region:    region,
		bound:     region.Bound(),
		scaleBits: make([]atomic.Uint64, region.Stages),
		gateBits:  make([]atomic.Uint64, region.Stages),
	}
	c.boundBits.Store(math.Float64bits(c.bound))
	for j := range c.scaleBits {
		c.scaleBits[j].Store(math.Float64bits(1))
	}
	var now time.Time
	if clock != nil {
		now = clock()
	} else {
		now = time.Now()
		c.epoch = now
		c.epochNano = now.UnixNano()
	}
	var floors []float64
	if reserved != nil {
		floors = make([]float64, c.stages)
		for j, v := range reserved {
			floors[j] = v / float64(k)
		}
	}
	c.shards = make([]*shard, k)
	for i := range c.shards {
		s := &shard{
			st:     tasktable.NewState(c.stages, floors),
			caps:   make([]float64, c.stages),
			scales: make([]float64, c.stages),
			vec:    make([]float64, c.stages),
			whl:    expiry.New(wheelGranularity, now, false),
			staged: make([]expiry.Entry, 0, stagedCap),
			origin: now.UnixNano(),
			maxNow: now.UnixNano(),
		}
		for j := range s.scales {
			s.scales[j] = 1
		}
		s.nextExp.Store(math.MaxInt64)
		c.shards[i] = s
	}
	// Initial partition: caps from the balanced residual split around
	// the reserved floors. No other goroutine can see c yet, so the
	// locks repartitionLocked asks for are not needed.
	c.repartitionLocked(false)
	return c
}

// Shards returns the shard count (after rounding).
func (c *Controller) Shards() int { return c.k }

func (c *Controller) nowNano() int64 {
	if c.clock != nil {
		return c.clock().UnixNano()
	}
	return c.epochNano + int64(time.Since(c.epoch))
}

// hashMul is the Fibonacci-hashing multiplier behind the shard index.
const hashMul = 0x9E3779B97F4A7C15

func (c *Controller) shardOf(id uint64) *shard {
	return c.shards[(id*hashMul)>>c.shift]
}

func (c *Controller) shardIdx(id uint64) int {
	return int((id * hashMul) >> c.shift)
}

func (c *Controller) stageScale(j int) float64 {
	return math.Float64frombits(c.scaleBits[j].Load())
}

func (c *Controller) boundNow() float64 {
	return math.Float64frombits(c.boundBits.Load())
}

// noteFreed invalidates the overload reject gate. Must be called while
// holding the shard (or global) lock that serialized the freeing
// mutation, so it is ordered against the gate's arming (which holds
// every shard lock).
func (c *Controller) noteFreed() {
	if c.gateArmed.Load() {
		c.freedGen.Add(1)
	}
}

// monotoneLocked folds a clock observation into the shard's monotone
// high-water mark; regressions (injected skew, stepped wall clocks) are
// counted and clamped so expiry can never stall. Callers hold s.mu.
func (s *shard) monotoneLocked(now int64) int64 {
	if now < s.maxNow {
		s.clockRegressions++
		return s.maxNow
	}
	s.maxNow = now
	return now
}

// purgeLocked flushes due wheel entries against the table: an entry
// whose (id, deadline) matches a row removes the row and credits its
// contributions; a mismatch is a lazily-cancelled stale entry. Callers
// hold s.mu and pass a monotone now. Returns how many live rows
// expired.
func (s *shard) purgeLocked(c *Controller, mnow int64) int {
	if len(s.staged) > 0 {
		s.drainStagedLocked()
	}
	expired := 0
	flushed := s.whl.AdvanceTo(mnow, func(e expiry.Entry) {
		slot, ok := s.st.Lookup(e.ID)
		if !ok || s.st.Stamp(slot) != e.At {
			s.cancelled++
			return
		}
		if s.st.Live(slot) {
			expired++
		}
		s.st.Drop(slot)
	})
	if flushed > 0 || s.nextExp.Load() <= mnow {
		if at, ok := s.whl.NextFlush(); ok {
			s.nextExp.Store(at)
		} else {
			s.nextExp.Store(math.MaxInt64)
		}
	}
	if expired > 0 {
		s.expired += uint64(expired)
		s.releasedTraffic += uint64(expired)
		s.updateHintLocked()
		c.noteFreed()
	}
	return expired
}

// commitLocked inserts the admitted row, charging each stage
// rawAt(raw, opt, j, lv) times its demand multiplier, and schedules the
// row's expiry at the absolute deadline at. A degraded admit (opt
// non-nil, lv below full quality) records lv. Callers hold s.mu and
// have verified the region or cap test.
func (s *shard) commitLocked(id uint64, at int64, raw, opt []float64, lv int) {
	level := uint8(task.QualityLevels)
	if opt != nil && lv < task.QualityLevels {
		level = uint8(lv)
		s.degraded++
	}
	for j := range s.vec {
		s.vec[j] = rawAt(raw, opt, j, lv) * s.scales[j]
	}
	s.st.Insert(id, at, level, s.vec)
	if len(s.staged) >= stagedCap {
		s.drainStagedLocked()
	}
	s.staged = append(s.staged, expiry.Entry{At: at, ID: id})
	// The wheel flushes the entry once its level-0 bucket ends. at lies
	// past the cursor, so the entry is never filed ripe.
	const g = int64(wheelGranularity)
	if flush := at - (at-s.origin)%g + g; flush < s.nextExp.Load() {
		s.nextExp.Store(flush)
	}
	s.admitted++
	s.noteHintOpLocked()
}

// purgeDueLocked folds one clock sample into the monotone view and
// flushes the wheel when an expiry is due. Callers hold s.mu. Returns
// the monotone now.
func (s *shard) purgeDueLocked(c *Controller) int64 {
	mnow := s.monotoneLocked(c.nowNano())
	if s.nextExp.Load() <= mnow {
		s.purgeLocked(c, mnow)
	}
	return mnow
}

// admitLocked runs a due purge and the pointwise cap test at level lv,
// committing on success. Callers hold s.mu.
func (s *shard) admitLocked(c *Controller, id uint64, deadline int64, raw, opt []float64, lv int) bool {
	mnow := s.purgeDueLocked(c)
	for j := range raw {
		if s.st.Util(j)+rawAt(raw, opt, j, lv)*s.scales[j] > s.caps[j] {
			return false
		}
	}
	s.commitLocked(id, mnow+deadline, raw, opt, lv)
	return true
}

// TryAdmit tests the request against the region and commits it on
// success. It is safe for concurrent use, allocation-free, and — under
// sustained overload, while no capacity has been freed and no purge is
// due — lock-free: rejection does not serialize on the controller. A
// purge is due only once the earliest deadline's 1 ms expiry bucket has
// ended, since before that it could free nothing.
func (c *Controller) TryAdmit(r Request) bool {
	return c.Admit(&r, nil)
}

// Admit is the by-reference admission entry point for wrapping
// controllers on their hot path: it skips the Request copy TryAdmit's
// value signature costs. The request is only read, never retained.
// When value is non-nil and the request is admitted, *value receives
// the post-admit region value Σ_j f(U_j) as RegionValue computes it:
// at K=1 from inside the admit's own critical section, at K>1 from a
// RegionValue call after the admit.
func (c *Controller) Admit(r *Request, value *float64) bool {
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
	if ok && value != nil && c.k > 1 {
		*value, _ = c.RegionValue()
	}
	return ok
}

// valid reports whether the request is well-formed: a positive
// deadline, one demand per stage, and not the reserved all-ones ID.
func (c *Controller) valid(r *Request) bool {
	return r.Deadline > 0 && len(r.Demands) == c.stages && r.ID != ^uint64(0)
}

// vectors converts the request into per-stage synthetic utilization
// demand/deadline (raw) and, when opt is non-nil, its optional portion.
// It reports false on a malformed request, including an Optional entry
// outside [0, Demands[j]] when opt is requested.
func (c *Controller) vectors(r *Request, raw, opt []float64) (hasOpt, ok bool) {
	if !c.valid(r) || (opt != nil && r.Optional != nil && len(r.Optional) != c.stages) {
		return false, false
	}
	invD := 1 / r.Deadline.Seconds()
	for j, dem := range r.Demands {
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

// admitReq decides one well-formed request at quality maxLevel (opt
// nil means rigid). The lock-free gate goes first, so sustained
// overload rejects without a lock. Past it, at K=1, is one exact region
// test; at K>1 the home shard's caps, then headroom stolen from peers,
// then the exact all-shard pass. Only the gate and the exact test
// reject, and only the exact test searches below maxLevel, so every K
// decides exactly as the single exact test does. Returns the admitted
// level; at K=1 a non-nil value receives the post-admit region value.
func (c *Controller) admitReq(id uint64, deadline int64, raw, opt []float64, maxLevel int, value *float64) (int, bool) {
	if c.gateRejects(raw, opt) {
		c.rejectedGate.Add(1)
		return 0, false
	}
	if c.k == 1 {
		return c.admitOne(id, deadline, raw, opt, maxLevel, value)
	}
	s := c.shardOf(id)
	s.mu.Lock()
	ok := s.admitLocked(c, id, deadline, raw, opt, maxLevel)
	s.mu.Unlock()
	if ok || c.stealThenAdmit(s, id, deadline, raw, opt, maxLevel) {
		return maxLevel, true
	}
	return c.globalAdmit(id, deadline, raw, opt, maxLevel)
}

// admitOne is the exact test at K=1, where the caps, steal, and global
// pass collapse into one region test under the only shard's lock. A
// reject arms the gate. On admit, a non-nil value receives the region
// value right after the commit, summed in stage order as RegionValue
// does, so a publishing caller needs no second lock round.
func (c *Controller) admitOne(id uint64, deadline int64, raw, opt []float64, maxLevel int, value *float64) (int, bool) {
	var stack [maxStackStages]float64
	utils, pooled := c.scratch(stack[:], 1)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	s := c.shards[0]
	s.mu.Lock()
	mnow := s.purgeDueLocked(c)
	for j := range utils {
		utils[j] = s.st.Util(j)
	}
	lv, ok := fitLevel(utils, s.scales, raw, opt, maxLevel, c.boundNow())
	if ok {
		s.commitLocked(id, mnow+deadline, raw, opt, lv)
		if value != nil {
			v := 0.0
			for j := range utils {
				v += core.StageDelayFactor(s.st.Util(j))
			}
			*value = v
		}
	} else {
		s.rejected++
		c.armGateLocked(utils)
	}
	s.mu.Unlock()
	return lv, ok
}

// fitLevel runs the quality cascade (core.FitLevel) over the exact
// region test Σ_j f(utils_j + d_j·scales_j) ≤ bound, where d is the
// demand at the level; only a request with optional demand (opt
// non-nil) is searched below maxLevel.
func fitLevel(utils, scales, raw, opt []float64, maxLevel int, bound float64) (int, bool) {
	return core.FitLevel(maxLevel, opt != nil, func(lv int) bool {
		sum := 0.0
		for j, u := range utils {
			sum += core.StageDelayFactor(u + rawAt(raw, opt, j, lv)*scales[j])
		}
		return sum <= bound
	})
}

// gateRejects is the lock-free overload reject: valid only while the
// gate is armed, no capacity has been freed since its snapshot, and no
// purge is due on any shard (no shard's nextExp, the end of its
// earliest deadline's wheel bucket, has passed). The snapshot
// utilizations are lower bounds on the current ones (admits only grow
// them), so snapshot-sum > bound proves the exact pass would reject
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
	now := c.nowNano()
	for _, s := range c.shards {
		if s.nextExp.Load() <= now {
			return false // a purge is due: capacity may free
		}
	}
	seq := c.gateSeq.Load()
	if seq&1 != 0 {
		return false
	}
	sum := 0.0
	for j := range raw {
		u := math.Float64frombits(c.gateBits[j].Load())
		sum += core.StageDelayFactor(u + rawAt(raw, opt, j, 0)*c.stageScale(j))
	}
	if c.gateSeq.Load() != seq || c.freedGen.Load() != g {
		return false
	}
	return sum > c.boundNow()
}

// Release drops the request's contribution on all stages immediately —
// call it when a request is cancelled or finishes well before its
// deadline and the caller prefers eager accounting over the idle reset.
// The wheel entry is left to be discarded lazily at its flush (the
// table no longer matches it). There is no purge; an expired or
// unknown ID is a silent no-op.
func (c *Controller) Release(id uint64) {
	s := c.shardOf(id)
	s.mu.Lock()
	s.releaseLocked(c, id)
	s.mu.Unlock()
}

// releaseLocked removes one row; reports whether any stage still
// charged it. Callers hold s.mu.
func (s *shard) releaseLocked(c *Controller, id uint64) bool {
	slot, ok := s.st.Lookup(id)
	if !ok {
		return false
	}
	removed := s.st.Live(slot)
	s.st.Drop(slot)
	if removed {
		s.releasedTraffic++
		s.noteHintOpLocked()
		c.noteFreed()
	}
	return removed
}

// ReleaseAll drops a burst of contributions — the batch mirror of
// Release, for services that complete requests in bursts — with one
// lock acquisition and one purge (at one clock sample) per shard
// touched. Returns how many IDs still had a live contribution.
func (c *Controller) ReleaseAll(ids []uint64) int {
	released := 0
	now := c.nowNano()
	for si, s := range c.shards {
		locked := false
		for _, id := range ids {
			if c.shardIdx(id) != si {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
				s.purgeLocked(c, s.monotoneLocked(now))
			}
			if s.releaseLocked(c, id) {
				released++
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	return released
}

// MarkDeparted records that the request finished its work at the stage,
// making its contribution eligible for the stage's idle reset.
func (c *Controller) MarkDeparted(stage int, id uint64) {
	s := c.shardOf(id)
	s.mu.Lock()
	s.markDepartedLocked(stage, id)
	s.mu.Unlock()
}

func (s *shard) markDepartedLocked(stage int, id uint64) {
	if slot, ok := s.st.Lookup(id); ok && s.st.Present(slot, stage) {
		s.st.MarkDeparted(slot, stage, id)
	}
}

// StageIdle performs the paper's idle reset for a stage on every shard:
// rows that departed the stage stop charging it, drained in
// ascending-ID order (cleared rows stay in the table until their
// deadline expiry). Call it when the stage's worker pool drains (no
// queued or running work). Each shard drains its departed list, so the
// reset costs what departed, not the table size.
func (c *Controller) StageIdle(stage int) {
	now := c.nowNano()
	freed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		s.purgeLocked(c, s.monotoneLocked(now))
		if n := s.st.ResetIdle(stage); n > 0 {
			s.releasedTraffic += uint64(n)
			s.updateHintLocked()
			c.noteFreed()
			freed += n
		}
		s.mu.Unlock()
	}
	if freed > 0 {
		c.idleResets.Add(1)
	}
}

// StageUtilization returns stage j's current global synthetic
// utilization (sum across shards, each purged first).
func (c *Controller) StageUtilization(j int) float64 {
	now := c.nowNano()
	sum := 0.0
	for _, s := range c.shards {
		s.mu.Lock()
		s.purgeLocked(c, s.monotoneLocked(now))
		sum += s.st.Util(j)
		s.mu.Unlock()
	}
	return sum
}

// Utilizations returns the current per-stage global synthetic
// utilizations. Shards are read in sequence (not one atomic cut): a
// concurrent admit or release may land between shard reads, skewing a
// stage by one contribution — the same freshness contract as a metrics
// scrape. At quiesce the vector is exact.
func (c *Controller) Utilizations() []float64 {
	us := make([]float64, c.stages)
	c.addUtils(us)
	return us
}

// addUtils adds each stage's global utilization into utils: one clock
// sample, then one pass over the shards in order, each purged first.
func (c *Controller) addUtils(utils []float64) {
	now := c.nowNano()
	for _, s := range c.shards {
		s.mu.Lock()
		s.purgeLocked(c, s.monotoneLocked(now))
		for j := range utils {
			utils[j] += s.st.Util(j)
		}
		s.mu.Unlock()
	}
}

// ShardStageUtilization returns shard k's local utilization at stage j
// (metrics gauge; no purge).
func (c *Controller) ShardStageUtilization(k, j int) float64 {
	s := c.shards[k]
	s.mu.Lock()
	u := s.st.Util(j)
	s.mu.Unlock()
	return u
}

// ShardStageCap returns shard k's current cap at stage j (metrics
// gauge).
func (c *Controller) ShardStageCap(k, j int) float64 {
	s := c.shards[k]
	s.mu.Lock()
	v := s.caps[j]
	s.mu.Unlock()
	return v
}

// StageScale returns stage j's demand multiplier without locking.
func (c *Controller) StageScale(j int) float64 { return c.stageScale(j) }

// Bound returns the current admission bound α·(1−Σβ) without locking.
func (c *Controller) Bound() float64 { return c.boundNow() }

// RegionValue returns the region value Σ_j f(U_j), summed in stage
// order over per-stage sums taken in shard order, together with the
// admission bound — one clock sample and one pass over the shards, each
// purged first, without allocating. Like Utilizations it is not one
// atomic cut under concurrent admits; at quiesce it is exact.
// bound − value is the headroom a cluster replica publishes.
func (c *Controller) RegionValue() (value, bound float64) {
	var stack [maxStackStages]float64
	utils, pooled := c.scratch(stack[:], 1)
	if pooled != nil {
		defer scratchPool.Put(pooled)
		clear(utils)
	}
	c.addUtils(utils)
	for _, u := range utils {
		value += core.StageDelayFactor(u)
	}
	return value, c.boundNow()
}

// Region returns a copy of the controller's current feasible region
// (the base configuration, or the latest SetRegionInputs update).
func (c *Controller) Region() core.Region {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	r := c.region
	if r.Betas != nil {
		r.Betas = append([]float64(nil), r.Betas...)
	}
	return r
}

// Stats returns a snapshot of the counters (shard counters are summed
// under each shard's lock in turn; the snapshot is not one atomic cut).
func (c *Controller) Stats() Stats {
	st := Stats{
		Rejected:        c.rejectedInvalid.Load() + c.rejectedGate.Load(),
		GateRejects:     c.rejectedGate.Load(),
		Steals:          c.steals.Load(),
		GlobalFallbacks: c.globalFallbacks.Load(),
		Rebalances:      c.rebalances.Load(),
		Reconciles:      c.reconciles.Load(),
		IdleResets:      c.idleResets.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Admitted += s.admitted
		st.Rejected += s.rejected
		st.Expired += s.expired
		st.ClockRegressions += s.clockRegressions
		st.Degraded += s.degraded
		st.Cancelled += s.cancelled
		s.mu.Unlock()
	}
	return st
}
