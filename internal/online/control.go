package online

import (
	"fmt"
	"math"
	"time"

	"feasregion/internal/task"
	"feasregion/internal/ticker"
)

// TryAdmitAll tests and commits a burst of requests under one lock and
// one purge; out[i], when out is non-nil, reports request i's outcome,
// and it returns the number admitted. Every request is tested exactly,
// in arrival order, against the state its predecessors left, so a batch
// decides as the equivalent TryAdmit sequence would.
func (c *Controller) TryAdmitAll(rs []Request, out []bool) int {
	if out != nil && len(out) < len(rs) {
		panic(fmt.Sprintf("online: TryAdmitAll result slice len %d for %d requests", len(out), len(rs)))
	}
	if len(rs) == 0 {
		return 0
	}
	var stack [maxStackStages]float64
	raw, pooled := c.scratch(stack[:], 1)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	admitted := 0
	rejected := false
	c.mu.Lock()
	mnow := c.purgeDueLocked()
	for i := range rs {
		r := &rs[i]
		_, ok := c.vectors(r, raw, nil)
		if !ok {
			c.rejectedInvalid.Add(1)
		} else {
			if ok = c.eng.Fits(raw); ok {
				c.commitLocked(r.ID, mnow+int64(r.Deadline), raw, false, task.QualityLevels)
				admitted++
			} else {
				c.rejected++
				rejected = true
			}
		}
		if out != nil {
			out[i] = ok
		}
	}
	if rejected {
		c.armGateLocked()
	}
	c.mu.Unlock()
	return admitted
}

// SetRegionInputs replaces the region's urgency-inversion parameter α
// and per-stage blocking terms β_j at runtime — the actuator of the
// adaptive estimation loop (internal/adapt): alpha must be in (0, 1],
// betas non-negative with one entry per stage (nil keeps current), and
// admitted contributions are unchanged.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	relaxed := c.eng.SetRegionInputs(alpha, betas) // may panic: nothing changed yet
	c.boundBits.Store(math.Float64bits(c.eng.Bound()))
	if relaxed {
		c.noteFreed()
	}
}

// SetStageScale sets a positive, finite demand multiplier for future
// admissions at the stage (1 restores nominal) — the self-healing hook
// for degraded stages: at half speed, scale 2 keeps the test honest.
// Admitted contributions are unchanged.
func (c *Controller) SetStageScale(stage int, scale float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	relaxed := c.eng.SetStageScale(stage, scale) // may panic: nothing changed yet
	c.scaleBits[stage].Store(math.Float64bits(scale))
	if relaxed {
		// A relaxed scale shrinks future demand charges: the armed gate's
		// reject proof no longer covers them.
		c.noteFreed()
	}
}

// Headroom returns how much additional synthetic utilization the stage
// can absorb right now, purged first, without allocating.
func (c *Controller) Headroom(stage int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeNowLocked()
	return c.eng.Headroom(stage)
}

// Reconcile runs one watchdog pass: a monotone purge, so clock skew
// cannot stall expiry. Embedding applications call it periodically as a
// safety net; on a healthy controller it is cheap. The task table
// cannot leak orphans (a row and its charge are one record), so there
// is nothing to reap; it returns the number of contributions the purge
// expired.
func (c *Controller) Reconcile() (expired int) {
	c.mu.Lock()
	expired = c.purgeNowLocked()
	c.reconciles.Add(1)
	c.mu.Unlock()
	return expired
}

// StartWatchdog runs Reconcile every interval on a background goroutine
// until the returned stop function is called (stop is idempotent and
// waits for the goroutine to exit; ticker.Start).
func (c *Controller) StartWatchdog(interval time.Duration) (stop func()) {
	return ticker.Start(interval, func() { c.Reconcile() })
}
