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

// readyEntry is one ready-heap slot: the job and its effective priority,
// so a sift dereferences jobs only to break a tie.
type readyEntry struct {
	eff float64
	j   *Job
}

// keyOf returns j's heap slot with its current key.
func keyOf(j *Job) readyEntry { return readyEntry{j.Effective(), j} }

// before is less over cached priorities.
func (e readyEntry) before(f readyEntry) bool {
	if e.eff != f.eff {
		return e.eff < f.eff
	}
	return e.j.seq < f.j.seq
}

// b2i is b as 0 or 1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readyHeap is a binary heap of ready jobs keyed by less. Its sifts make
// container/heap's comparisons (moving a hole instead of swapping), so
// jobs leave in the same order and the layout is the same. A slot's
// cached priority must equal its job's: whoever changes a queued job's
// inheritance refreshes it through fix (one job) or init (every job).
type readyHeap []readyEntry

func (h readyHeap) up(j int) {
	e := h[j]
	for {
		i := (j - 1) / 2 // parent
		if i == j || !e.before(h[i]) {
			break
		}
		h[j] = h[i]
		h[j].j.heapIdx = j
		j = i
	}
	h[j] = e
	e.j.heapIdx = j
}

func (h readyHeap) down(i0, n int) bool {
	e := h[i0]
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j1+1 < n {
			j += b2i(h[j1+1].before(h[j1])) // right child: no branch to mispredict
		}
		if !h[j].before(e) {
			break
		}
		h[i] = h[j]
		h[i].j.heapIdx = i
		i = j
	}
	h[i] = e
	e.j.heapIdx = i
	return i > i0
}

// push adds j.
func (h *readyHeap) push(j *Job) {
	*h = append(*h, keyOf(j))
	h.up(len(*h) - 1)
}

// pop removes and returns the most urgent job.
func (h *readyHeap) pop() *Job {
	return h.remove(0)
}

// remove removes and returns the job at index i.
func (h *readyHeap) remove(i int) *Job {
	old := *h
	n := len(old) - 1
	j := old[i].j
	if n != i {
		old[i] = old[n]
		if !old.down(i, n) {
			old.up(i)
		}
	}
	old[n] = readyEntry{}
	j.heapIdx = -1
	*h = old[:n]
	return j
}

// fix restores the heap after the job at index i changed priority.
func (h readyHeap) fix(i int) {
	h[i].eff = h[i].j.Effective()
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// init re-establishes the heap after arbitrary key changes.
func (h readyHeap) init() {
	for i := range h {
		h[i].eff = h[i].j.Effective()
	}
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// holds reports whether j is queued in this heap: its index may be
// stale, or belong to another stage's heap, so the slot is checked.
func (h readyHeap) holds(j *Job) bool {
	return j.heapIdx >= 0 && j.heapIdx < len(h) && h[j.heapIdx].j == j
}
