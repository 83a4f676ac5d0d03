package core

import (
	"feasregion/internal/des"
	"feasregion/internal/task"
)

// WaitStats counts wait-queue outcomes.
type WaitStats struct {
	AdmittedImmediately uint64
	AdmittedAfterWait   uint64
	TimedOut            uint64
}

// regionAdmitter abstracts the chain and DAG controllers for the wait
// queue: test without side effects, then commit.
type regionAdmitter interface {
	// WouldAdmit evaluates the admission test without committing.
	WouldAdmit(t *task.Task) bool
	// commitAdmit commits a task that WouldAdmit accepted.
	commitAdmit(t *task.Task)
	// OnRelease registers a utilization-decrease hook.
	OnRelease(fn func(now des.Time))
}

// WaitQueue wraps a Controller with the TSCE-style hold behavior (paper
// §5): an arrival that does not fit the feasible region waits up to
// MaxWait for synthetic utilization to be released (by deadline
// decrements or idle resets) before being rejected. While waiting, a
// task's absolute deadline does not move, so a late admission sees a
// shortened effective relative deadline and a correspondingly larger
// contribution — the test stays sound.
type WaitQueue struct {
	sim     *des.Simulator
	c       regionAdmitter
	maxWait float64
	admit   func(t *task.Task)

	pending []*waiter
	stats   WaitStats
}

type waiter struct {
	t       *task.Task
	timeout des.Event
	done    bool
}

// NewWaitQueue builds a wait queue over the pipeline controller. admit
// is invoked (synchronously, at admission time) with the task to inject
// — for a late admission the task's Arrival is the admission instant and
// its Deadline is the remaining slack. maxWait ≤ 0 degenerates to
// immediate accept/reject.
func NewWaitQueue(sim *des.Simulator, c *Controller, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	return newWaitQueue(sim, c, maxWait, admit)
}

// NewGraphWaitQueue builds the same hold behavior over the Theorem 2
// controller for DAG tasks.
func NewGraphWaitQueue(sim *des.Simulator, c *GraphController, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	return newWaitQueue(sim, c, maxWait, admit)
}

func newWaitQueue(sim *des.Simulator, c regionAdmitter, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	if admit == nil {
		panic("core: WaitQueue needs an admit callback")
	}
	w := &WaitQueue{sim: sim, c: c, maxWait: maxWait, admit: admit}
	c.OnRelease(func(des.Time) { w.retry() })
	return w
}

// Stats returns a snapshot of the wait-queue counters.
func (w *WaitQueue) Stats() WaitStats { return w.stats }

// Submit runs the admission test, holding the task on failure. A held
// task is kept by pointer: the caller must not reuse it.
func (w *WaitQueue) Submit(t *task.Task) {
	if w.c.WouldAdmit(t) {
		w.c.commitAdmit(t)
		w.stats.AdmittedImmediately++
		w.admit(t)
		return
	}
	if w.maxWait <= 0 {
		w.stats.TimedOut++
		return
	}
	wt := &waiter{t: t}
	wt.timeout = w.sim.After(w.maxWait, func() {
		wt.done = true
		w.stats.TimedOut++
		w.compact()
	})
	w.pending = append(w.pending, wt)
}

// retry re-tests held tasks in arrival order after a utilization release.
func (w *WaitQueue) retry() {
	if len(w.pending) == 0 {
		return
	}
	now := w.sim.Now()
	for _, wt := range w.pending {
		if wt.done {
			continue
		}
		slack := wt.t.AbsoluteDeadline() - now
		if slack <= 0 {
			continue // timeout event will reap it
		}
		late := *wt.t
		late.Arrival = now
		late.Deadline = slack
		// Test via WouldAdmit and commit directly so that retries do not
		// inflate the controller's rejection counter.
		if !w.c.WouldAdmit(&late) {
			continue
		}
		w.c.commitAdmit(&late)
		wt.done = true
		w.sim.Cancel(wt.timeout)
		w.stats.AdmittedAfterWait++
		w.admit(&late)
	}
	w.compact()
}

// compact drops completed waiters while preserving arrival order.
func (w *WaitQueue) compact() {
	live := w.pending[:0]
	for _, wt := range w.pending {
		if !wt.done {
			live = append(live, wt)
		}
	}
	for i := len(live); i < len(w.pending); i++ {
		w.pending[i] = nil
	}
	w.pending = live
}
