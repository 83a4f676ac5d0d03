package online

import (
	"fmt"
	"math"
	"sync"
	"time"

	"feasregion/internal/task"
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
	var stack [2 * maxStackStages]float64
	buf, pooled := c.scratch(stack[:], 2)
	if pooled != nil {
		defer scratchPool.Put(pooled)
	}
	raw, utils := buf[:c.stages], buf[c.stages:]
	admitted := 0
	rejected := false
	c.mu.Lock()
	mnow := c.purgeDueLocked()
	bound := c.boundNow()
	for i := range rs {
		r := &rs[i]
		_, ok := c.vectors(r, raw, nil)
		if !ok {
			c.rejectedInvalid.Add(1)
		} else {
			for j := range utils {
				utils[j] = c.st.Util(j)
			}
			if _, ok = fitLevel(utils, c.scales, raw, nil, task.QualityLevels, bound); ok {
				c.commitLocked(r.ID, mnow+int64(r.Deadline), raw, nil, task.QualityLevels)
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
		for j := range utils {
			utils[j] = c.st.Util(j)
		}
		c.armGateLocked(utils)
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
	r := c.region.WithAlpha(alpha) // may panic: nothing changed yet
	if betas != nil {
		r = r.WithBetas(betas)
	}
	old := c.boundNow()
	c.region = r
	c.boundBits.Store(math.Float64bits(r.Bound()))
	if r.Bound() > old {
		c.noteFreed()
	}
}

// SetStageScale sets a demand multiplier for future admissions at the
// stage — the self-healing hook for degraded stages: a replica running
// at half speed doubles every request's computation time there, so
// scale 2 keeps the admission test honest. scale must be positive and
// finite (scale 1 restores nominal); admitted contributions are
// unchanged.
func (c *Controller) SetStageScale(stage int, scale float64) {
	if scale <= 0 || scale != scale || scale > 1e9 {
		panic(fmt.Sprintf("online: stage scale %v must be positive and finite", scale))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.scales[stage]
	c.scales[stage] = scale
	c.scaleBits[stage].Store(math.Float64bits(scale))
	if scale < old {
		// A relaxed scale shrinks future demand charges: the armed gate's
		// reject proof no longer covers them.
		c.noteFreed()
	}
}

// Headroom returns how much additional synthetic utilization the stage
// can absorb right now.
func (c *Controller) Headroom(stage int) float64 {
	us := c.Utilizations()
	return c.Region().Headroom(us, stage)
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
