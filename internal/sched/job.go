package sched

import (
	"feasregion/internal/des"
	"feasregion/internal/task"
)

// Completer receives a job's completion: Complete runs when the job has
// finished all its segments, and may submit further jobs to this or
// other stages.
type Completer interface {
	Complete(now des.Time)
}

// completeFunc adapts a plain callback to Completer.
type completeFunc func(now des.Time)

// Complete runs the callback.
func (f completeFunc) Complete(now des.Time) { f(now) }

// Job is one subtask instance executing on a Stage. Stage.Submit
// allocates one; Stage.SubmitJob runs one in storage the caller owns.
// Either way the stage uses it from submission until completion or
// Cancel. A job holds no simulator events: its completion and budget
// watchdog are pending only while it runs, on the stage's alarms.
type Job struct {
	TaskID task.ID

	base      float64 // assigned priority; lower is more urgent
	inherited float64 // priority inherited under PCP; +Inf when none
	seq       uint64  // submission order, used as a deterministic tie-break

	// segments is the job's execution plan: the subtask's explicit
	// segments, or one inline in whole for an unsegmented subtask.
	segments     []task.Segment
	whole        [1]task.Segment
	segIdx       int
	segRemaining float64
	acquired     bool // current segment's lock already held

	heldLock  *lock
	blockedOn *lock

	segStart  des.Time
	submitted des.Time

	// Budget accounting for the overrun guard: consumed accumulates the
	// computation time actually executed; budget is the admitted demand
	// estimate (+Inf when unguarded); overrunFired latches so each job
	// trips the guard at most once.
	consumed     float64
	budget       float64
	overrunFired bool

	done Completer // nil: nobody waits for the completion

	heapIdx int // index in the ready heap; -1 when not enqueued
}

// Effective returns the job's effective priority: the more urgent of its
// base and inherited priorities.
func (j *Job) Effective() float64 {
	if j.inherited < j.base {
		return j.inherited
	}
	return j.base
}

// Priority returns the job's assigned (base) priority.
func (j *Job) Priority() float64 { return j.base }

// Submitted returns the time the job entered the stage's ready queue.
func (j *Job) Submitted() des.Time { return j.submitted }

// Consumed returns the computation time the job has executed so far,
// excluding the partially-run current dispatch (updated at preemption
// and segment completion; the overrun watchdog adds the in-flight part
// itself).
func (j *Job) Consumed() float64 { return j.consumed }

// Budget returns the job's overrun budget (+Inf when unguarded).
func (j *Job) Budget() float64 { return j.budget }

// Remaining returns the total computation time the job has left.
func (j *Job) Remaining() float64 {
	rem := j.segRemaining
	for i := j.segIdx + 1; i < len(j.segments); i++ {
		rem += j.segments[i].Duration
	}
	return rem
}

// less orders jobs by (effective priority, submission sequence): a job
// preempts or runs ahead of another only if strictly more urgent, or tied
// but submitted earlier. The deterministic tie-break keeps simulations
// reproducible.
func less(a, b *Job) bool {
	ea, eb := a.Effective(), b.Effective()
	if ea != eb {
		return ea < eb
	}
	return a.seq < b.seq
}

// readyHeap is a binary heap of ready jobs keyed by less. Its sift
// algorithms are exactly container/heap's (push, pop, remove, fix,
// init), so jobs leave in the same order, without interface dispatch.
type readyHeap []*Job

func (h readyHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h readyHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(h[j], h[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h readyHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && less(h[j2], h[j1]) {
			j = j2 // right child
		}
		if !less(h[j], h[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// push adds j.
func (h *readyHeap) push(j *Job) {
	j.heapIdx = len(*h)
	*h = append(*h, j)
	h.up(j.heapIdx)
}

// pop removes and returns the most urgent job.
func (h *readyHeap) pop() *Job {
	n := len(*h) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.removeLast()
}

// remove removes and returns the job at index i.
func (h *readyHeap) remove(i int) *Job {
	n := len(*h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	return h.removeLast()
}

// fix restores the heap after the job at index i changed priority.
func (h readyHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// init re-establishes the heap after arbitrary key changes.
func (h readyHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *readyHeap) removeLast() *Job {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}

// holds reports whether j is queued in this heap: its index may be
// stale, or belong to another stage's heap, so the slot is checked.
func (h readyHeap) holds(j *Job) bool {
	return j.heapIdx >= 0 && j.heapIdx < len(h) && h[j.heapIdx] == j
}
