package shard

import (
	"feasregion/internal/core"
	"feasregion/internal/task"
)

// Quality-aware admission. The lock-free gate probes mandatory-only
// demand, the cascade's weakest test, so a gate reject implies every
// level fails. At K=1 the whole cascade is then the one exact test. At
// K>1 the routing rule that keeps decisions identical to that test is:
// the local fast path and the steal path only ever admit at maxLevel (a
// cap-test pass at maxLevel implies the exact region test passes there,
// the cascade's first branch); every degraded outcome — the binary
// search below the cap — runs inside the exact all-shard pass.

// rawAt is the stage's synthetic utilization at a quality level: full
// demand minus the untaken share of the optional portion (opt nil
// means rigid: always full demand).
func rawAt(raw, opt []float64, j, level int) float64 {
	if opt == nil || level >= task.QualityLevels {
		return raw[j]
	}
	if level <= 0 {
		return raw[j] - opt[j]
	}
	return raw[j] - opt[j]*(1-float64(level)/task.QualityLevels)
}

// TryAdmitQuality runs the quality-aware admission cascade: test at
// maxLevel (callers pass the governor's quality cap, or
// task.QualityLevels when ungoverned); if that fails and the request
// carries optional demand, binary-search the highest level in
// [0, maxLevel) whose degraded demand still fits, and commit there. The
// committed contribution is the degraded one, so expiry credits exactly
// what was charged. On success it returns the admitted level. Like
// TryAdmit, the path is allocation-free and rejects lock-free under
// sustained overload.
func (c *Controller) TryAdmitQuality(r Request, maxLevel int) (level int, ok bool) {
	maxLevel = min(max(maxLevel, 0), task.QualityLevels)
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	raw, opt := buf[:c.stages], buf[c.stages:]
	hasOpt, valid := c.vectors(&r, raw, opt)
	if !valid {
		c.rejectedInvalid.Add(1)
		return 0, false
	}
	if !hasOpt {
		opt = nil
	}
	return c.admitReq(r.ID, int64(r.Deadline), raw, opt, maxLevel, true, nil)
}

// SetQuality retunes an in-flight request's quality level. Lowering
// scales its contribution down on every still-charged stage — always
// permitted, it only frees capacity — and runs entirely under the home
// shard's lock. Raising charges more, so it re-runs the region test
// against the true global utilizations under the exact-pass locks and
// re-partitions (caps are rebuilt at-or-above utilizations); it is
// refused when it would leave the region. The request must carry the
// same Demands/Optional it was admitted with: contributions are scaled
// by the ratio of the new to the current level's demand, so any stage
// scale in force at admission is preserved. It reports whether the
// level changed; an unknown or expired ID, a rigid request, or a no-op
// level returns false.
func (c *Controller) SetQuality(r Request, level int) bool {
	level = min(max(level, 0), task.QualityLevels)
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	raw, opt := buf[:c.stages], buf[c.stages:]
	hasOpt, valid := c.vectors(&r, raw, opt)
	if !valid || !hasOpt {
		return false
	}

	s := c.shardOf(r.ID)
	s.mu.Lock()
	mnow := s.monotoneLocked(c.nowNano())
	s.purgeLocked(c, mnow)
	slot, present := s.st.Lookup(r.ID)
	if !present || !s.st.Live(slot) {
		s.mu.Unlock()
		return false
	}
	cur := int(s.st.Level(slot))
	if level == cur {
		s.mu.Unlock()
		return false
	}
	if level < cur {
		c.trimLocked(s, slot, raw, opt, cur, level)
		s.mu.Unlock()
		c.hook()
		return true
	}
	s.mu.Unlock()
	return c.raiseQuality(r.ID, raw, opt, level)
}

// trimLocked lowers the row's level from cur to level. Callers hold
// s.mu.
func (c *Controller) trimLocked(s *shard, slot int, raw, opt []float64, cur, level int) {
	c.retuneLocked(s, slot, raw, opt, cur, level)
	s.st.SetLevel(slot, uint8(level))
	s.trimmed++
	s.updateHintLocked()
	c.noteFreed()
}

// retuneLocked maps every still-charged stage's contribution from cur
// to level by demand ratio (falling back to an absolute charge when the
// current level's demand is zero), updating the shard sums in place.
// Callers hold s.mu.
func (c *Controller) retuneLocked(s *shard, slot int, raw, opt []float64, cur, level int) {
	for j := 0; j < c.stages; j++ {
		if s.st.Present(slot, j) {
			s.st.Recharge(slot, j, c.retuned(raw, opt, j, s.st.Contrib(slot, j), cur, level))
		}
	}
}

// retuned maps a stage's contribution from one quality level to another
// by demand ratio.
func (c *Controller) retuned(raw, opt []float64, j int, contrib float64, cur, level int) float64 {
	curDemand := rawAt(raw, opt, j, cur)
	if curDemand <= 0 {
		return rawAt(raw, opt, j, level) * c.stageScale(j)
	}
	return contrib * rawAt(raw, opt, j, level) / curDemand
}

// raiseQuality re-tests the region with the enlarged contribution under
// the exact-pass locks, re-reading the row (it may have expired between
// the caller's unlock and here).
func (c *Controller) raiseQuality(id uint64, raw, opt []float64, level int) bool {
	restored, expired := c.raiseQualityLocked(id, raw, opt, level)
	if expired > 0 {
		c.hook()
	}
	return restored
}

func (c *Controller) raiseQualityLocked(id uint64, raw, opt []float64, level int) (bool, int) {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	c.lockShards()
	defer c.unlockShards()
	expired := c.purgeAllLocked()
	s := c.shardOf(id)
	slot, present := s.st.Lookup(id)
	if !present || !s.st.Live(slot) {
		return false, expired
	}
	cur := int(s.st.Level(slot))
	if level == cur {
		return false, expired
	}
	if level < cur {
		// The level dropped while we were switching locks: lowering is
		// always permitted, finish it here.
		c.trimLocked(s, slot, raw, opt, cur, level)
		return true, expired
	}
	// Re-test with each still-charged stage's contribution swapped for
	// its enlarged version, against the true global utilizations.
	sum := 0.0
	for j := 0; j < c.stages; j++ {
		u := 0.0
		for _, sh := range c.shards {
			u += sh.st.Util(j)
		}
		if s.st.Present(slot, j) {
			contrib := s.st.Contrib(slot, j)
			u += c.retuned(raw, opt, j, contrib, cur, level) - contrib
		}
		sum += core.StageDelayFactor(u)
	}
	if sum > c.bound {
		return false, expired
	}
	c.retuneLocked(s, slot, raw, opt, cur, level)
	s.st.SetLevel(slot, uint8(level))
	s.restored++
	// The raised contribution may exceed the home shard's cap; rebuild
	// the partition from the new truth.
	c.repartitionLocked(false)
	return true, expired
}

// QualityOf returns the quality level the request was admitted (or
// since retuned) at, and whether it currently contributes anywhere.
// Requests admitted by the plain TryAdmit path report full quality.
func (c *Controller) QualityOf(id uint64) (level int, present bool) {
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.st.Lookup(id)
	if !ok || !s.st.Live(slot) {
		return 0, false
	}
	return int(s.st.Level(slot)), true
}
