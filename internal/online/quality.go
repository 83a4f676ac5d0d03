package online

import (
	"feasregion/internal/task"
)

// Quality-aware admission. The lock-free gate probes mandatory-only
// demand, the cascade's weakest test, so a gate reject implies every
// level fails; past the gate the whole cascade is the one exact test.

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
	return c.admitReq(r.ID, int64(r.Deadline), raw, opt, maxLevel, nil)
}

// QualityOf returns the quality level the request was admitted (or
// since retuned) at, and whether it currently contributes anywhere.
// Requests admitted by the plain TryAdmit path report full quality.
func (c *Controller) QualityOf(id uint64) (level int, present bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.st.Lookup(id)
	if !ok || !c.st.Live(slot) {
		return 0, false
	}
	return int(c.st.Level(slot)), true
}
