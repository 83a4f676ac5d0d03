package core

import "feasregion/internal/task"

// This file implements quality-aware (imprecise-computation) admission:
// the three-step cascade of the "degrade before you reject" design. An
// arrival is first tested at full demand; on rejection Engine.FitLevel
// binary-searches the highest quality level whose degraded demand vector
// still fits the region; and before evicting anyone, PlanDegradation
// trims optional demand across already-admitted tasks in victim order,
// evicting only tasks that are already at mandatory-only. The degraded
// path, like the full-demand one, allocates nothing.

// QualityOf returns the quality level the task was admitted (or since
// degraded) at, and whether the task currently contributes to any stage
// ledger. Tasks admitted by the plain TryAdmit path report full quality.
func (c *Controller) QualityOf(id task.ID) (level int, present bool) {
	slot, ok := c.live(id)
	if !ok {
		return 0, false
	}
	return int(c.st.Level(slot)), true
}

// live returns the task's table row when it still charges some stage.
func (c *Controller) live(id task.ID) (int, bool) {
	slot, ok := c.st.Lookup(key(id))
	return slot, ok && c.st.Live(slot)
}

// TryAdmitQuality runs the quality-aware admission cascade: test the task
// at maxLevel (callers pass the governor's quality cap, or
// task.QualityLevels when ungoverned); if that fails and the task carries optional demand,
// FitLevel finds the highest level in [0, maxLevel) whose degraded
// demand vector fits the region, and the task is committed there. Each
// region evaluation is O(stages). On success it returns the admitted
// level; contributions are committed at that level's demand so the
// scheduled deadline decrement automatically credits the degraded (not
// the full) demand back. Besides what TryAdmit rejects, a task whose
// optional demand lies outside [0, Demand] at some stage is rejected as
// malformed: below full quality its demand would be negative.
func (c *Controller) TryAdmitQuality(t *task.Task, maxLevel int) (level int, ok bool) {
	maxLevel = min(max(maxLevel, 0), task.QualityLevels)
	var d []float64
	if validOptional(t) {
		level, d, ok = c.eng.FitLevel(maxLevel, t.HasOptional(), func(lv int) []float64 {
			return c.deltasAt(t, lv)
		})
	}
	if !ok {
		c.stats.Rejected++
		return 0, false
	}
	if level < task.QualityLevels && t.HasOptional() {
		c.stats.Degraded++
		c.commit(t, d, level)
	} else {
		c.commit(t, d, task.QualityLevels)
	}
	return level, true
}

// Degrade lowers an admitted task's quality level in place, scaling its
// ledger contribution at every stage by the ratio of new to current
// degraded demand — the actuator PlanDegradation's trim list is applied
// with. It returns the total synthetic utilization freed and reports
// whether anything changed; raising quality or degrading an unknown,
// expired, fully-mandatory or malformed (optional demand outside
// [0, Demand]) task is a no-op. Freed utilization retries admission
// waiters, exactly like a deadline decrement.
func (c *Controller) Degrade(t *task.Task, newLevel int) (trimmed float64, ok bool) {
	if newLevel < 0 {
		newLevel = 0
	}
	slot, present := c.live(t.ID)
	if !present {
		return 0, false
	}
	cur := int(c.st.Level(slot))
	if newLevel >= cur || !t.HasOptional() || !validOptional(t) {
		return 0, false
	}
	for j := range c.ledgers {
		contrib := c.st.Contrib(slot, j) // 0 once cleared
		if contrib == 0 {
			continue
		}
		curDemand := t.StageDemandAt(j, cur)
		if curDemand <= 0 {
			continue
		}
		next := contrib * t.StageDemandAt(j, newLevel) / curDemand
		if !chargeable(next) { // an infinite demand
			continue
		}
		c.recharge(slot, j, next)
		trimmed += contrib - next
	}
	c.st.SetLevel(slot, uint8(newLevel))
	c.stats.Trims++
	c.metTrimmed.Add(trimmed)
	c.notifyChange()
	if trimmed > 0 {
		c.fireRelease()
	}
	return trimmed, true
}

// DegradePlan is PlanDegradation's answer: the tasks to trim to
// mandatory-only and, only if trimming alone is not enough, the tasks to
// evict outright. The two lists are disjoint; evicted tasks are removed
// from the trim list since eviction subsumes trimming.
type DegradePlan struct {
	Trim  []task.ID
	Evict []task.ID
}

// PlanDegradation is the graceful successor of PlanShedding: it finds the
// shortest prefix of candidates (in the given order — callers pass the
// canonical victim order, least important first) whose degradation to
// mandatory-only demand would let t pass the admission test at its own
// mandatory-only level. Only when every candidate is already trimmed and
// t still does not fit does the plan escalate to evicting candidates
// whole, in the same order. It reports ok=false when even evicting every
// candidate does not make room; nothing is modified either way — apply
// the plan with Degrade and Evict, then re-run TryAdmitQuality (which may
// now find room above mandatory-only).
func (c *Controller) PlanDegradation(t *task.Task, candidates []*task.Task) (plan DegradePlan, ok bool) {
	d := c.deltasAt(t, 0)
	if d == nil {
		return DegradePlan{}, false
	}
	p := c.eng.newRegionSum(d)
	if p.fits() {
		return DegradePlan{}, true
	}
	// Remaining per-candidate contribution after the trim phase, so the
	// eviction phase subtracts exactly what is left.
	remaining := make(map[task.ID][]float64, len(candidates))
	for _, v := range candidates {
		slot, present := c.live(v.ID)
		if !present {
			continue
		}
		cur := int(c.st.Level(slot))
		rem := make([]float64, len(c.ledgers))
		for j := range c.ledgers {
			rem[j] = c.st.Contrib(slot, j) // 0 once cleared
		}
		remaining[v.ID] = rem
		if cur == 0 || !v.HasOptional() {
			continue
		}
		for j := range c.ledgers {
			contrib := rem[j]
			if contrib == 0 {
				continue
			}
			curDemand := v.StageDemandAt(j, cur)
			if curDemand <= 0 {
				continue
			}
			next := contrib * v.StageDemandAt(j, 0) / curDemand
			p.sub(j, contrib-next)
			rem[j] = next
		}
		plan.Trim = append(plan.Trim, v.ID)
		if p.fits() {
			return plan, true
		}
	}
	// Everyone is at mandatory-only and t still does not fit: escalate to
	// eviction in the same order.
	evicted := make(map[task.ID]bool, len(candidates))
	for _, v := range candidates {
		rem, present := remaining[v.ID]
		if !present {
			continue
		}
		touched := false
		for j, contrib := range rem {
			if contrib == 0 {
				continue
			}
			p.sub(j, contrib)
			touched = true
		}
		if !touched {
			continue
		}
		plan.Evict = append(plan.Evict, v.ID)
		evicted[v.ID] = true
		if p.fits() {
			// Eviction subsumes trimming: drop evicted tasks from Trim.
			kept := plan.Trim[:0]
			for _, id := range plan.Trim {
				if !evicted[id] {
					kept = append(kept, id)
				}
			}
			plan.Trim = kept
			return plan, true
		}
	}
	return DegradePlan{}, false
}
