package baseline

import (
	"fmt"
	"math"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/tasktable"
)

// SplitDeadlineController is the traditional pipeline-analysis baseline
// the paper contrasts with (§1): the end-to-end deadline D is split into
// N equal intermediate per-stage deadlines D/N, and each stage is then
// admission-controlled independently against the single-resource
// aperiodic utilization bound U ≤ 1/(1+sqrt(1/2)).
//
// A task's stage-j synthetic contribution is C_ij/(D_i/N); it is added on
// admission and removed at the task's j-th intermediate deadline
// A_i + (j+1)·D_i/N. The same idle-reset rule applies per stage. The
// controller is sound but more pessimistic than the end-to-end feasible
// region, which is exactly what the comparison experiments demonstrate.
//
// Contributions live in one region state, a row per admitted task
// stamped with its admission sequence number: each intermediate deadline
// clears its stage only while the row still carries that admission's
// stamp, and the last one drops the row.
//
// It implements pipeline.Admitter.
type SplitDeadlineController struct {
	sim   *des.Simulator
	st    tasktable.State
	seq   int64 // admissions so far: the stamp of the latest row
	d     []float64
	stats core.Stats
}

// NewSplitDeadlineController builds the baseline for an N-stage pipeline.
func NewSplitDeadlineController(sim *des.Simulator, stages int) *SplitDeadlineController {
	if stages <= 0 {
		panic(fmt.Sprintf("baseline: need stages, got %d", stages))
	}
	return &SplitDeadlineController{
		sim: sim,
		st:  tasktable.NewState(stages, nil),
		d:   make([]float64, stages),
	}
}

// Stats returns a snapshot of admission counters.
func (c *SplitDeadlineController) Stats() core.Stats { return c.stats }

// Utilizations returns the per-stage synthetic utilizations (computed
// against intermediate deadlines).
func (c *SplitDeadlineController) Utilizations() []float64 {
	us := make([]float64, len(c.d))
	for j := range us {
		us[j] = c.st.Util(j)
	}
	return us
}

// TryAdmit implements pipeline.Admitter: every stage must independently
// stay within the uniprocessor aperiodic bound under its intermediate
// deadline. A task with a deadline that is not positive and finite, or
// with a negative demand, is rejected as malformed.
func (c *SplitDeadlineController) TryAdmit(t *task.Task) bool {
	n := len(c.d)
	if !(t.Deadline > 0 && t.Deadline <= math.MaxFloat64) || len(t.Subtasks) != n {
		c.stats.Rejected++
		return false
	}
	stageDeadline := t.Deadline / float64(n)
	for j := range c.d {
		c.d[j] = t.StageDemand(j) / stageDeadline
		// A negative demand would create capacity, so it is malformed;
		// !(≤ bound) also rejects NaN.
		if !(c.d[j] >= 0 && c.st.Util(j)+c.d[j] <= core.UniprocessorBound) {
			c.stats.Rejected++
			return false
		}
	}
	c.seq++
	c.st.Insert(key(t.ID), c.seq, task.QualityLevels, c.d)
	for j := range c.d {
		k, stamp, last := key(t.ID), c.seq, j == n-1
		c.sim.At(t.Arrival+float64(j+1)*stageDeadline, func() {
			slot, ok := c.st.Lookup(k)
			switch {
			case !ok || c.st.Stamp(slot) != stamp:
			case last:
				c.st.Drop(slot)
			case c.st.Present(slot, j):
				c.st.ClearStage(slot, j)
			}
		})
	}
	c.stats.Admitted++
	return true
}

// key maps a task ID to its table key.
func key(id task.ID) uint64 { return uint64(id) }

// MarkDeparted implements pipeline.Admitter.
func (c *SplitDeadlineController) MarkDeparted(stage int, id task.ID) {
	if slot, ok := c.st.Lookup(key(id)); ok {
		c.st.MarkDeparted(slot, stage)
	}
}

// HandleStageIdle implements pipeline.Admitter.
func (c *SplitDeadlineController) HandleStageIdle(stage int) {
	c.st.ResetIdle(stage)
}
