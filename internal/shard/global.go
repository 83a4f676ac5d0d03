package shard

import (
	"fmt"
	"math"
	"sync"

	"feasregion/internal/core"
	"feasregion/internal/task"
)

// This file is the sharded controller's control plane: everything that
// crosses shard boundaries. Lock order is gmu, then shards in index
// order; the steal path holds at most one shard lock at a time (and
// never gmu), so it can run concurrently with other shards' admits.

func (c *Controller) lockShards() {
	for _, s := range c.shards {
		s.mu.Lock()
	}
}

func (c *Controller) unlockShards() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// purgeAllLocked folds one clock sample into every shard and flushes
// their due expiries. Callers hold all shard locks.
func (c *Controller) purgeAllLocked() (expired int) {
	now := c.nowNano()
	for _, s := range c.shards {
		expired += s.purgeLocked(c, s.monotoneLocked(now))
	}
	return expired
}

// repartitionMargin is subtracted from the residual value budget before
// it is spread into per-shard caps, keeping floating-point rounding on
// the conservative side: a cap-test pass must always imply the exact
// Σf ≤ bound test passes (soundness), so the margin may only cost a
// boundary admit its fast path — the exact global pass still takes it,
// and work conservation is unaffected.
const repartitionMargin = 1e-12

// repartitionLocked re-centers every shard's caps around the current
// truth. Per stage, the global cap spreads the region's residual value
// budget evenly across stages in f-space:
//
//	Cap_j = f⁻¹(f(U_j) + (B − Σ_i f(U_i))/N)
//
// so Σ_j f(Cap_j) = B by construction, and each shard's cap is its own
// utilization plus a share of Cap_j − U_j — uniform, or weighted by
// release traffic when the watchdog calls (the shards draining fastest
// get the headroom, since that is where the next admits will land
// locally). Caps never drop below current utilizations, so the shard
// invariant util ≤ cap survives any re-partition unconditionally. The
// generation bump invalidates in-flight steals. Callers hold gmu and
// every shard lock. At K=1 there is no partition to move (the only
// test is the exact one), so it does nothing.
func (c *Controller) repartitionLocked(weighted bool) {
	if c.k == 1 {
		return
	}
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	utils, caps := buf[:c.stages], buf[c.stages:]
	c.globalUtilsLocked(utils)
	v := 0.0
	for _, u := range utils {
		v += core.StageDelayFactor(u)
	}
	residual := c.bound - v - repartitionMargin*(1+c.bound)
	share := residual / float64(c.stages)
	for j := range utils {
		if residual <= 0 {
			caps[j] = utils[j]
			continue
		}
		caps[j] = core.InverseStageDelayFactor(core.StageDelayFactor(utils[j]) + share)
		if caps[j] < utils[j] {
			caps[j] = utils[j]
		}
	}
	totW := 0.0
	for _, s := range c.shards {
		if weighted {
			totW += float64(s.releasedTraffic) + 1
		} else {
			totW++
		}
	}
	for j := range utils {
		extra := caps[j] - utils[j]
		for _, s := range c.shards {
			w := 1.0
			if weighted {
				w = float64(s.releasedTraffic) + 1
			}
			s.caps[j] = s.st.Util(j) + extra*(w/totW)
		}
	}
	for _, s := range c.shards {
		if weighted {
			s.releasedTraffic = 0
		}
		s.updateHintLocked()
	}
	c.gen.Add(1)
	c.rebalances.Add(1)
}

// stealThenAdmit gathers headroom from peer shards into the home shard
// and retries the local admit. It probes up to maxStealProbes peers,
// richest first by slack hint, locking one shard at a time; the
// transfer commits only if no re-partition raced (generation check
// under the home lock — the generation can only change while every
// shard lock is held, so holding home's makes check-then-add atomic).
// On a lost race the gathered slack is abandoned: the re-partition that
// bumped the generation rebuilt every cap from true utilizations, so
// abandoning only under-counts capacity until the next re-partition —
// conservative, never unsound.
func (c *Controller) stealThenAdmit(home *shard, id uint64, deadline int64, raw, opt []float64, lv int) bool {
	genAt := c.gen.Load()
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	rem, taken := buf[:c.stages], buf[c.stages:]
	for j := range rem {
		rem[j] = rawAt(raw, opt, j, lv) * c.stageScale(j)
		taken[j] = 0
	}

	var peers [MaxShards]*shard
	var slacks [MaxShards]float64
	n := 0
	for _, s := range c.shards {
		if s == home {
			continue
		}
		peers[n] = s
		slacks[n] = math.Float64frombits(s.slackHint.Load())
		n++
	}
	probes := maxStealProbes
	if probes > n {
		probes = n
	}
	stole := false
	now := c.nowNano()
	for p := 0; p < probes; p++ {
		best := p
		for q := p + 1; q < n; q++ {
			if slacks[q] > slacks[best] {
				best = q
			}
		}
		peers[p], peers[best] = peers[best], peers[p]
		slacks[p], slacks[best] = slacks[best], slacks[p]
		s := peers[p]
		s.mu.Lock()
		mnow := s.monotoneLocked(now)
		if s.nextExp.Load() <= mnow {
			s.purgeLocked(c, mnow)
		}
		for j := range rem {
			if rem[j] <= 0 {
				continue
			}
			avail := s.caps[j] - s.st.Util(j)
			if avail <= 0 {
				continue
			}
			t := rem[j]
			if avail < t {
				t = avail
			}
			s.caps[j] -= t
			taken[j] += t
			rem[j] -= t
			stole = true
		}
		s.updateHintLocked()
		s.mu.Unlock()
		full := true
		for j := range rem {
			if rem[j] > 0 {
				full = false
				break
			}
		}
		if full {
			break
		}
	}
	if !stole {
		return false
	}

	home.mu.Lock()
	if c.gen.Load() != genAt {
		home.mu.Unlock()
		return false
	}
	for j := range taken {
		home.caps[j] += taken[j]
	}
	ok := home.admitLocked(c, id, deadline, raw, opt, lv)
	home.updateHintLocked()
	home.mu.Unlock()
	if ok {
		c.steals.Add(1)
	}
	return ok
}

// armGateLocked publishes the per-stage global utilizations as the
// overload reject gate's snapshot. Callers hold every shard lock, so no
// capacity-freeing critical section can be concurrent with the arming:
// any later free acquires a shard lock, observes gateArmed, and bumps
// freedGen — which is exactly the invalidation the gate checks.
func (c *Controller) armGateLocked(utils []float64) {
	c.gateSeq.Add(1) // odd: snapshot inconsistent
	for j, u := range utils {
		c.gateBits[j].Store(math.Float64bits(u))
	}
	c.gateFreedGen.Store(c.freedGen.Load())
	c.gateSeq.Add(1) // even: consistent
	c.gateArmed.Store(true)
}

// globalAdmit is the exact all-shard pass at K>1 — the last resort
// before a true reject: under every lock, after a full purge, it runs
// fitLevel against the true global utilizations, draining every shard's
// slack. On admit it commits to the home shard and re-partitions, so
// the slack the request exposed is spread back over the shards; on
// reject it arms the lock-free gate. Returns the admitted level.
func (c *Controller) globalAdmit(id uint64, deadline int64, raw, opt []float64, maxLevel int) (int, bool) {
	c.globalFallbacks.Add(1)
	c.gmu.Lock()
	defer c.gmu.Unlock()
	c.lockShards()
	defer c.unlockShards()
	c.purgeAllLocked()

	var stack [maxStackStages]float64
	utils, pooled := c.scratch(stack[:], 1)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	c.globalUtilsLocked(utils)
	home := c.shardOf(id)
	lv, ok := fitLevel(utils, home.scales, raw, opt, maxLevel, c.bound)
	if !ok {
		home.rejected++
		c.armGateLocked(utils)
		return 0, false
	}
	if c.gateArmed.Load() {
		c.gateArmed.Store(false)
	}
	home.commitLocked(id, home.maxNow+deadline, raw, opt, lv)
	c.repartitionLocked(false)
	return lv, true
}

// globalUtilsLocked fills utils with each stage's utilization summed
// over the shards in index order. Callers hold every shard lock.
func (c *Controller) globalUtilsLocked(utils []float64) {
	for j := range utils {
		u := 0.0
		for _, s := range c.shards {
			u += s.st.Util(j)
		}
		utils[j] = u
	}
}

// flagPool serves TryAdmitAll's outcome scratch when the caller passes
// no result slice.
var flagPool = sync.Pool{New: func() any { return new([]bool) }}

// TryAdmitAll tests and commits a burst of requests; out[i], when out
// is non-nil, reports request i's outcome, and it returns the number
// admitted. At K=1 it takes one lock and one purge and tests every
// request exactly, in arrival order, against the state its predecessors
// left. At K>1 it takes one lock and one purge per shard for the
// requests their home caps can take, then runs the full fallback chain
// in arrival order for the rest — so a mixed accept/reject boundary can
// differ from the sequential order (the per-request TryAdmit decisions
// are what every K keeps identical).
func (c *Controller) TryAdmitAll(rs []Request, out []bool) int {
	if out != nil && len(out) < len(rs) {
		panic(fmt.Sprintf("shard: TryAdmitAll result slice len %d for %d requests", len(out), len(rs)))
	}
	if len(rs) == 0 {
		return 0
	}
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	raw := buf[:c.stages]
	if c.k == 1 {
		return c.tryAdmitAllOne(rs, out, raw, buf[c.stages:])
	}
	if out == nil {
		p := flagPool.Get().(*[]bool)
		defer flagPool.Put(p)
		if cap(*p) < len(rs) {
			*p = make([]bool, len(rs))
		}
		out = *p
	}
	out = out[:len(rs)]
	clear(out)
	admitted := 0
	for si, s := range c.shards {
		locked := false
		for i := range rs {
			r := &rs[i]
			if c.shardIdx(r.ID) != si {
				continue
			}
			if _, ok := c.vectors(r, raw, nil); !ok {
				c.rejectedInvalid.Add(1)
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			if s.admitLocked(c, r.ID, int64(r.Deadline), raw, nil, task.QualityLevels) {
				out[i] = true
				admitted++
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	for i := range rs {
		if out[i] || !c.valid(&rs[i]) {
			continue // admitted locally, or already counted as malformed
		}
		if c.Admit(&rs[i], nil) {
			out[i] = true
			admitted++
		}
	}
	return admitted
}

// tryAdmitAllOne is TryAdmitAll at K=1. raw and utils are stage-sized
// scratch.
func (c *Controller) tryAdmitAllOne(rs []Request, out []bool, raw, utils []float64) int {
	s := c.shards[0]
	admitted := 0
	rejected := false
	s.mu.Lock()
	mnow := s.purgeDueLocked(c)
	bound := c.boundNow()
	for i := range rs {
		r := &rs[i]
		_, ok := c.vectors(r, raw, nil)
		if !ok {
			c.rejectedInvalid.Add(1)
		} else {
			for j := range utils {
				utils[j] = s.st.Util(j)
			}
			if _, ok = fitLevel(utils, s.scales, raw, nil, task.QualityLevels, bound); ok {
				s.commitLocked(r.ID, mnow+int64(r.Deadline), raw, nil, task.QualityLevels)
				admitted++
			} else {
				s.rejected++
				rejected = true
			}
		}
		if out != nil {
			out[i] = ok
		}
	}
	if rejected {
		for j := range utils {
			utils[j] = s.st.Util(j)
		}
		c.armGateLocked(utils)
	}
	s.mu.Unlock()
	return admitted
}

// SetRegionInputs replaces the region's urgency-inversion parameter α
// and per-stage blocking terms β_j at runtime — the actuator of the
// adaptive estimation loop (internal/adapt) — then re-partitions the
// new bound across shards: alpha must be in (0, 1], betas non-negative
// with one entry per stage (nil keeps current), and admitted
// contributions are unchanged.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	r := c.region.WithAlpha(alpha) // may panic: shards not yet locked
	if betas != nil {
		r = r.WithBetas(betas)
	}
	c.lockShards()
	defer c.unlockShards()
	old := c.bound
	c.region = r
	c.bound = r.Bound()
	c.boundBits.Store(math.Float64bits(c.bound))
	c.repartitionLocked(false)
	if c.bound > old {
		c.noteFreed()
	}
}

// SetStageScale sets a demand multiplier for future admissions at the
// stage, on every shard atomically — the self-healing hook for degraded
// stages: a replica running at half speed doubles every request's
// computation time there, so scale 2 keeps the admission test honest.
// scale must be positive and finite (scale 1 restores nominal);
// admitted contributions are unchanged.
func (c *Controller) SetStageScale(stage int, scale float64) {
	if scale <= 0 || scale != scale || scale > 1e9 {
		panic(fmt.Sprintf("shard: stage scale %v must be positive and finite", scale))
	}
	c.gmu.Lock()
	defer c.gmu.Unlock()
	c.lockShards()
	defer c.unlockShards()
	old := math.Float64frombits(c.scaleBits[stage].Load())
	for _, s := range c.shards {
		s.scales[stage] = scale
	}
	c.scaleBits[stage].Store(math.Float64bits(scale))
	if scale < old {
		// A relaxed scale shrinks future demand charges: the armed gate's
		// reject proof no longer covers them.
		c.noteFreed()
	}
}

// Headroom returns how much additional synthetic utilization the stage
// can absorb right now, globally.
func (c *Controller) Headroom(stage int) float64 {
	us := c.Utilizations()
	return c.Region().Headroom(us, stage)
}

// Reconcile runs one watchdog pass: a monotone purge on every shard (so
// clock skew cannot stall expiry) plus, at K>1, the slow rebalance —
// caps re-centered toward the shards with the most release traffic
// since the last pass. Embedding applications call it periodically as a
// safety net; on a healthy controller it is cheap. The task table
// cannot leak orphans (a row and its charge are one record), so there
// is nothing to reap; it returns the number of contributions the purge
// expired.
func (c *Controller) Reconcile() (expired int) {
	c.gmu.Lock()
	c.lockShards()
	expired = c.purgeAllLocked()
	c.repartitionLocked(true)
	c.reconciles.Add(1)
	c.unlockShards()
	c.gmu.Unlock()
	return expired
}
