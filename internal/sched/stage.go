package sched

import (
	"fmt"
	"math"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
)

// segmentDone is the des.Timer for a job's segment-completion event; one
// lives inside each Job so dispatch schedules without allocating.
type segmentDone struct {
	s *Stage
	j *Job
}

// Fire completes the job's current segment.
func (t *segmentDone) Fire(des.Time) { t.s.onSegmentDone(t.j) }

// watchdog is the des.Timer for a job's budget-exhaustion event.
type watchdog struct {
	s *Stage
	j *Job
}

// Fire trips the overrun guard.
func (t *watchdog) Fire(des.Time) { t.s.onWatch(t.j) }

// lock is a stage-local single-unit resource managed under the priority
// ceiling protocol.
type lock struct {
	id      int
	ceiling float64 // highest (numerically smallest) priority of any user
	holder  *Job
}

// EventKind labels a scheduling event for observers.
type EventKind uint8

// Scheduling event kinds, in rough lifecycle order.
const (
	EventStart EventKind = iota + 1 // job dispatched onto the CPU
	EventPreempt
	EventBlock // blocked under PCP
	EventComplete
	EventCancel
)

// String returns the kind's label.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventPreempt:
		return "preempt"
	case EventBlock:
		return "block"
	case EventComplete:
		return "complete"
	case EventCancel:
		return "cancel"
	default:
		return "unknown"
	}
}

// Event is one scheduling occurrence reported to an observer.
type Event struct {
	Time  des.Time
	Stage string
	Task  task.ID
	Kind  EventKind
}

// Stats are cumulative counters exposed for experiments and tests.
type Stats struct {
	Submitted   uint64
	Completed   uint64
	Cancelled   uint64
	Preemptions uint64
	MaxReady    int
	// BusyPeriods counts completed busy periods (busy→idle transitions);
	// LongestBusyPeriod is the longest one observed. Busy periods are
	// the unit of analysis in the stage delay theorem's proof.
	BusyPeriods       uint64
	LongestBusyPeriod float64
}

// Stage is one preemptive fixed-priority resource. Create it with New;
// the zero value is not usable.
type Stage struct {
	sim  *des.Simulator
	name string

	ready   readyHeap
	blocked []*Job // jobs blocked under PCP, waiting for a lock release
	running *Job

	locks map[int]*lock

	idle      bool
	paused    bool
	busySince des.Time
	busyTotal float64

	preemptionOverhead float64

	// execModel, when set, maps each segment's nominal duration to the
	// time the stage actually spends executing it — the fault-injection
	// point for demand overruns and degraded-stage slowdowns. The hot
	// path is untouched when nil.
	execModel func(id task.ID, nominal float64) float64

	// onOverrun fires (at most once per job) when a budgeted job's
	// consumed computation time crosses its budget. consumed is the time
	// executed so far; observedTotal is consumed plus the job's remaining
	// work. The handler may Cancel the job.
	onOverrun func(j *Job, consumed, observedTotal float64)

	idleFns []func(now des.Time)
	observe func(Event)

	ins Instruments

	seq   uint64
	stats Stats
}

// Instruments are the stage's observability hooks. Every field may be
// nil: a nil instrument's methods are free no-ops, so the dispatch path
// carries no conditionals for the disabled case.
type Instruments struct {
	// QueueDepth tracks the number of ready (queued, dispatchable) jobs.
	QueueDepth *metrics.Gauge
	// ServiceTime observes each completed job's executed computation
	// time (inflated by the exec model when faults are injected).
	ServiceTime *metrics.Histogram
	// Sojourn observes each completed job's total time at the stage,
	// submission to completion (queueing + preemption + execution).
	Sojourn *metrics.Histogram
	// Overruns counts budget-watchdog firings.
	Overruns *metrics.Counter
}

// SetInstruments wires the stage's observability instruments; the zero
// Instruments value detaches them.
func (s *Stage) SetInstruments(ins Instruments) { s.ins = ins }

// New returns an idle stage driven by the given simulator clock.
func New(sim *des.Simulator, name string) *Stage {
	return &Stage{sim: sim, name: name, locks: map[int]*lock{}, idle: true}
}

// Name returns the stage's label.
func (s *Stage) Name() string { return s.name }

// Stats returns a snapshot of the stage's counters.
func (s *Stage) Stats() Stats { return s.stats }

// Idle reports whether the stage has no running, ready, or blocked work.
func (s *Stage) Idle() bool { return s.idle }

// ReadyLen returns the number of ready (queued, dispatchable) jobs,
// excluding the running job.
func (s *Stage) ReadyLen() int { return len(s.ready) }

// BlockedLen returns the number of jobs blocked under PCP.
func (s *Stage) BlockedLen() int { return len(s.blocked) }

// SetPreemptionOverhead charges the given extra computation time to a
// job every time it is preempted (modeling context-switch and cache
// costs). The analysis assumes zero overhead, so a non-zero value lets
// experiments quantify how the paper's guarantee erodes on real
// hardware. It must be non-negative.
func (s *Stage) SetPreemptionOverhead(eps float64) {
	if eps < 0 || math.IsNaN(eps) {
		panic(fmt.Sprintf("sched: preemption overhead must be non-negative, got %v", eps))
	}
	s.preemptionOverhead = eps
}

// SetExecModel installs a transform from a segment's nominal duration to
// the time the stage actually executes — the injection point for demand
// overruns (a task that lied about its demand) and degraded-stage
// slowdowns. It applies to jobs submitted after the call; nil restores
// nominal execution. The transform must return a non-negative finite
// value.
func (s *Stage) SetExecModel(fn func(id task.ID, nominal float64) float64) {
	s.execModel = fn
}

// OnOverrun registers the budget watchdog observer: it fires, at most
// once per job, at the exact simulated instant a budgeted job's consumed
// computation time crosses its budget (see SubmitBudgeted). consumed is
// the computation executed so far; observedTotal adds the job's
// remaining work. The handler runs while the job is still resident and
// may Cancel it. At most one observer is supported.
func (s *Stage) OnOverrun(fn func(j *Job, consumed, observedTotal float64)) {
	s.onOverrun = fn
}

// OnEvent registers an observer for scheduling events (dispatch,
// preemption, PCP blocking, completion, cancellation). At most one
// observer is supported; tracing wires through here.
func (s *Stage) OnEvent(fn func(Event)) { s.observe = fn }

// emit reports an event to the observer, if any.
func (s *Stage) emit(kind EventKind, id task.ID) {
	if s.observe != nil {
		s.observe(Event{Time: s.sim.Now(), Stage: s.name, Task: id, Kind: kind})
	}
}

// OnIdle registers fn to be called whenever the stage transitions from
// busy to idle. The admission controller uses this to reset the stage's
// synthetic utilization (paper §4).
func (s *Stage) OnIdle(fn func(now des.Time)) {
	s.idleFns = append(s.idleFns, fn)
}

// RegisterLock declares a PCP-managed lock with the given priority
// ceiling (the numerically smallest priority of any task that may use it).
// If the lock already exists its ceiling is tightened to the more urgent
// of the two values, so callers may register per-task.
func (s *Stage) RegisterLock(id int, ceiling float64) {
	if id == task.NoLock {
		panic("sched: cannot register the NoLock sentinel as a lock")
	}
	if l, ok := s.locks[id]; ok {
		l.ceiling = math.Min(l.ceiling, ceiling)
		return
	}
	s.locks[id] = &lock{id: id, ceiling: ceiling}
}

// BusyTime returns the cumulative time the stage has been busy up to now.
func (s *Stage) BusyTime(now des.Time) float64 {
	if s.idle {
		return s.busyTotal
	}
	return s.busyTotal + (now - s.busySince)
}

// Submit enqueues a subtask with the given fixed priority (lower = more
// urgent). onComplete, if non-nil, runs when the job finishes all its
// segments; it may submit further jobs to this or other stages.
func (s *Stage) Submit(id task.ID, priority float64, sub task.Subtask, onComplete func(now des.Time)) *Job {
	return s.SubmitBudgeted(id, priority, sub, math.Inf(1), onComplete)
}

// SubmitBudgeted is Submit with an overrun budget: when the job's
// consumed computation time crosses budget, the OnOverrun observer fires
// (once). A +Inf budget disables the watchdog. The budget is compared
// against actual execution time, which the exec model may have inflated
// beyond the nominal subtask demand.
func (s *Stage) SubmitBudgeted(id task.ID, priority float64, sub task.Subtask, budget float64, onComplete func(now des.Time)) *Job {
	var done Completer
	if onComplete != nil {
		done = completeFunc(onComplete)
	}
	j := new(Job)
	s.SubmitJob(j, id, priority, sub, budget, done)
	return j
}

// SubmitJob is SubmitBudgeted into job storage the caller owns, with
// done (nil for none) notified at completion: a caller that keeps one Job
// per in-flight task submits without allocating. j is reset first, so it
// may be fresh or reused, but it must not be resident on any stage — the
// stage holds it from here until done fires or Cancel returns true.
func (s *Stage) SubmitJob(j *Job, id task.ID, priority float64, sub task.Subtask, budget float64, done Completer) {
	if math.IsNaN(budget) || budget < 0 {
		panic(fmt.Sprintf("sched: stage %q: invalid budget %v for task %d", s.name, budget, id))
	}
	*j = Job{
		TaskID:    id,
		base:      priority,
		inherited: math.Inf(1),
		seq:       s.seq,
		budget:    budget,
		submitted: s.sim.Now(),
		done:      done,
		heapIdx:   -1,
	}
	if len(sub.Segments) > 0 {
		j.segments = sub.Segments
	} else {
		j.whole[0] = task.Segment{Duration: sub.Demand, Lock: task.NoLock}
		j.segments = j.whole[:]
	}
	if s.execModel != nil {
		if len(sub.Segments) > 0 {
			// Transform a copy: explicit segments alias the task's own
			// slice, which other stages and retries still read.
			j.segments = append([]task.Segment(nil), sub.Segments...)
		}
		for i, seg := range j.segments {
			d := s.execModel(id, seg.Duration)
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				panic(fmt.Sprintf("sched: stage %q: exec model returned %v for task %d", s.name, d, id))
			}
			j.segments[i].Duration = d
		}
	}
	j.doneT = segmentDone{s: s, j: j}
	j.watchT = watchdog{s: s, j: j}
	s.seq++
	j.segRemaining = j.segments[0].Duration
	for _, seg := range j.segments {
		if seg.Lock != task.NoLock {
			if _, ok := s.locks[seg.Lock]; !ok {
				panic(fmt.Sprintf("sched: stage %q: job uses unregistered lock %d", s.name, seg.Lock))
			}
		}
	}
	s.stats.Submitted++
	if s.idle {
		s.idle = false
		s.busySince = s.sim.Now()
	}
	s.ready.push(j)
	if n := len(s.ready); n > s.stats.MaxReady {
		s.stats.MaxReady = n
	}
	s.schedule()
}

// schedule enforces the scheduling invariant: the running job is the most
// urgent dispatchable job. It preempts, dispatches, applies PCP blocking,
// and transitions to idle as needed.
func (s *Stage) schedule() {
	s.scheduleLoop()
	s.ins.QueueDepth.Set(float64(len(s.ready)))
}

func (s *Stage) scheduleLoop() {
	if s.paused {
		return // stalled: nothing dispatches until Resume
	}
	for {
		if s.running != nil {
			if len(s.ready) == 0 || !less(s.ready[0], s.running) {
				return
			}
			s.preempt()
		}
		if len(s.ready) == 0 {
			s.goIdle()
			return
		}
		j := s.ready.pop()
		if !s.tryEnterSegment(j) {
			continue // j blocked under PCP; try the next ready job
		}
		s.start(j)
		return
	}
}

// tryEnterSegment performs the PCP acquisition test for j's current
// segment. It returns false (and records j as blocked, applying priority
// inheritance) if the segment needs a lock j may not yet take.
func (s *Stage) tryEnterSegment(j *Job) bool {
	seg := j.segments[j.segIdx]
	if seg.Lock == task.NoLock || j.acquired {
		return true
	}
	l := s.locks[seg.Lock]
	if l.holder == j {
		j.acquired = true
		return true
	}
	if blocker := s.pcpBlocker(j, l); blocker != nil {
		s.block(j, blocker)
		return false
	}
	l.holder = j
	j.heldLock = l
	j.acquired = true
	return true
}

// pcpBlocker returns the lock that blocks j from acquiring want under the
// priority ceiling protocol, or nil if acquisition may proceed: j may lock
// only if its effective priority is strictly more urgent than the ceiling
// of every lock held by another job.
func (s *Stage) pcpBlocker(j *Job, want *lock) *lock {
	if want.holder != nil && want.holder != j {
		return want
	}
	var blocker *lock
	for _, l := range s.locks {
		if l.holder == nil || l.holder == j {
			continue
		}
		if blocker == nil || l.ceiling < blocker.ceiling {
			blocker = l
		}
	}
	if blocker == nil {
		return nil
	}
	if j.Effective() < blocker.ceiling {
		// Strictly more urgent than the system ceiling (lower numeric
		// value = more urgent): acquisition may proceed.
		return nil
	}
	return blocker
}

// block parks j on the lock that blocks it and applies priority
// inheritance to the holder.
func (s *Stage) block(j *Job, l *lock) {
	j.blockedOn = l
	s.blocked = append(s.blocked, j)
	s.emit(EventBlock, j.TaskID)
	h := l.holder
	if eff := j.Effective(); eff < h.inherited {
		h.inherited = eff
		if h.heapIdx >= 0 {
			s.ready.fix(h.heapIdx)
		}
	}
}

// start begins (or resumes) executing j's current segment.
func (s *Stage) start(j *Job) {
	s.running = j
	j.segStart = s.sim.Now()
	j.completion = s.sim.AfterTimer(j.segRemaining, &j.doneT)
	s.armWatch(j)
	s.emit(EventStart, j.TaskID)
}

// armWatch schedules the budget-exhaustion event for this dispatch if
// the job will cross its budget before the segment completes. The
// completion event is scheduled first, so a job that consumes exactly
// its budget completes without tripping the watchdog.
func (s *Stage) armWatch(j *Job) {
	if s.onOverrun == nil || j.overrunFired || math.IsInf(j.budget, 1) {
		return
	}
	slack := j.budget - j.consumed
	if j.segRemaining <= slack {
		return // cannot cross during this dispatch
	}
	if slack < 0 {
		slack = 0
	}
	j.watch = s.sim.AfterTimer(slack, &j.watchT)
}

// onWatch is the budget-exhaustion event body (watchdog.Fire).
func (s *Stage) onWatch(j *Job) {
	j.watch = des.Event{}
	j.overrunFired = true
	s.ins.Overruns.Inc()
	consumed := j.consumed + (s.sim.Now() - j.segStart)
	// j.consumed excludes the in-flight dispatch and j.Remaining()
	// still counts the whole current segment, so their sum is the
	// job's total actual work.
	s.onOverrun(j, consumed, j.consumed+j.Remaining())
}

// disarmWatch withdraws a pending budget-exhaustion event.
func (s *Stage) disarmWatch(j *Job) {
	if j.watch.Valid() {
		s.sim.Cancel(j.watch)
		j.watch = des.Event{}
	}
}

// preempt pauses the running job, records its remaining work, and returns
// it to the ready queue.
func (s *Stage) preempt() {
	j := s.running
	s.running = nil
	elapsed := s.sim.Now() - j.segStart
	j.consumed += elapsed
	j.segRemaining -= elapsed
	if j.segRemaining < 0 {
		j.segRemaining = 0
	}
	j.segRemaining += s.preemptionOverhead
	s.sim.Cancel(j.completion)
	j.completion = des.Event{}
	s.disarmWatch(j)
	s.ready.push(j)
	s.stats.Preemptions++
	s.emit(EventPreempt, j.TaskID)
}

// onSegmentDone fires when the running job finishes its current segment.
func (s *Stage) onSegmentDone(j *Job) {
	now := s.sim.Now()
	s.running = nil
	j.completion = des.Event{}
	j.consumed += now - j.segStart
	j.segRemaining = 0
	s.disarmWatch(j)

	seg := j.segments[j.segIdx]
	if seg.Lock != task.NoLock && j.heldLock != nil && j.heldLock.id == seg.Lock {
		s.release(j)
	}
	j.acquired = false

	j.segIdx++
	if j.segIdx < len(j.segments) {
		j.segRemaining = j.segments[j.segIdx].Duration
		s.ready.push(j)
		s.schedule()
		return
	}

	s.stats.Completed++
	s.ins.ServiceTime.Observe(j.consumed)
	s.ins.Sojourn.Observe(now - j.submitted)
	s.emit(EventComplete, j.TaskID)
	if j.done != nil {
		j.done.Complete(now)
	}
	s.schedule()
}

// release returns j's held lock, clears inheritance, and re-readies every
// PCP-blocked job: blocked jobs re-run the acquisition test at their next
// dispatch, which also re-establishes inheritance where still needed.
func (s *Stage) release(j *Job) {
	j.heldLock.holder = nil
	j.heldLock = nil
	j.inherited = math.Inf(1)
	if len(s.blocked) == 0 {
		return
	}
	for _, b := range s.blocked {
		b.blockedOn = nil
		s.ready.push(b)
	}
	s.blocked = s.blocked[:0]
	for _, l := range s.locks {
		if l.holder != nil {
			l.holder.inherited = math.Inf(1)
		}
	}
	s.ready.init() // inheritance resets may have reordered keys
}

// Cancel aborts a job that was submitted to this stage and has not yet
// completed: it is removed from execution, the ready queue, or the
// blocked set, any held lock is released, and its completion callback
// will never fire. Cancel reports whether the job was found (false for
// jobs already completed or never submitted here). The load-shedding
// architecture of the paper's §5 uses this to drop less important work.
func (s *Stage) Cancel(j *Job) bool {
	switch {
	case s.running == j:
		s.sim.Cancel(j.completion)
		j.completion = des.Event{}
		s.disarmWatch(j)
		s.running = nil
		if j.heldLock != nil {
			s.release(j)
		}
		s.stats.Cancelled++
		s.emit(EventCancel, j.TaskID)
		s.schedule()
		return true
	case s.ready.holds(j):
		s.ready.remove(j.heapIdx)
		s.ins.QueueDepth.Set(float64(len(s.ready)))
		if j.heldLock != nil {
			s.release(j) // preempted inside its critical section
			s.schedule() // a flushed waiter may now outrank the runner
		} else if s.running == nil {
			s.schedule()
		}
		s.stats.Cancelled++
		s.emit(EventCancel, j.TaskID)
		return true
	case j.blockedOn != nil:
		for i, b := range s.blocked {
			if b == j {
				s.blocked = append(s.blocked[:i], s.blocked[i+1:]...)
				break
			}
		}
		j.blockedOn = nil
		s.recomputeInheritance()
		s.stats.Cancelled++
		s.emit(EventCancel, j.TaskID)
		// Dropping inheritance may demote the running job below a ready
		// one; re-establish the scheduling invariant.
		s.schedule()
		return true
	default:
		return false
	}
}

// TrimTo shrinks a resident job's total computation demand to newDemand
// (nominal; the exec model, if any, is re-applied exactly as at submit
// time) and replaces its overrun budget — the scheduler-side actuator of
// quality degradation: when an in-flight task drops to a lower quality
// level, the stage stops executing optional work the ledgers no longer
// account for. Only unsegmented (single segment, no lock) jobs can be
// trimmed; critical sections are not skippable. Demand already executed
// is sunk — the job's remaining work becomes max(0, newDemand−executed) —
// and TrimTo never extends a job: a newDemand above the current plan only
// updates the budget. Trimming a running job to at or below its executed
// time completes it at the current instant. It reports whether the job
// was resident (running or ready) and trimmable.
func (s *Stage) TrimTo(j *Job, newDemand, newBudget float64) bool {
	if newDemand < 0 || math.IsNaN(newDemand) || newBudget < 0 || math.IsNaN(newBudget) {
		panic(fmt.Sprintf("sched: stage %q: invalid trim (demand %v, budget %v) for task %d",
			s.name, newDemand, newBudget, j.TaskID))
	}
	if len(j.segments) != 1 || j.segments[0].Lock != task.NoLock {
		return false
	}
	actual := newDemand
	if s.execModel != nil {
		actual = s.execModel(j.TaskID, newDemand)
		if actual < 0 || math.IsNaN(actual) || math.IsInf(actual, 0) {
			panic(fmt.Sprintf("sched: stage %q: exec model returned %v for task %d", s.name, actual, j.TaskID))
		}
	}
	switch {
	case s.running == j:
		// Fold the in-flight dispatch into consumed and restart the
		// segment clock so the completion event and budget watchdog are
		// re-derived from a consistent state.
		now := s.sim.Now()
		elapsed := now - j.segStart
		rem := j.segRemaining - elapsed
		if rem < 0 {
			rem = 0
		}
		newRem := actual - (j.consumed + elapsed)
		if newRem < 0 {
			newRem = 0
		}
		if newRem > rem {
			newRem = rem // never extend
		}
		j.consumed += elapsed
		j.segStart = now
		j.segRemaining = newRem
		s.sim.Cancel(j.completion)
		j.completion = s.sim.AfterTimer(newRem, &j.doneT)
		j.budget = newBudget
		s.disarmWatch(j)
		s.armWatch(j)
		return true
	case s.ready.holds(j):
		newRem := actual - j.consumed
		if newRem < 0 {
			newRem = 0
		}
		if newRem < j.segRemaining {
			j.segRemaining = newRem
		}
		j.budget = newBudget
		return true
	default:
		return false // completed, cancelled, or never submitted here
	}
}

// recomputeInheritance re-derives every lock holder's inherited priority
// from the remaining blocked jobs (after a blocked job is cancelled).
func (s *Stage) recomputeInheritance() {
	changed := false
	for _, l := range s.locks {
		if l.holder != nil && l.holder.inherited != math.Inf(1) {
			l.holder.inherited = math.Inf(1)
			changed = true
		}
	}
	for _, b := range s.blocked {
		h := b.blockedOn.holder
		if eff := b.Effective(); eff < h.inherited {
			h.inherited = eff
			changed = true
		}
	}
	if changed {
		s.ready.init()
	}
}

// goIdle transitions the stage to idle and fires the idle hooks.
func (s *Stage) goIdle() {
	if s.idle {
		return
	}
	if len(s.blocked) > 0 {
		// A lock is only held by a running or preempted-but-ready job, so
		// ready+running empty implies no holders and thus no blocked jobs.
		panic(fmt.Sprintf("sched: stage %q going idle with %d blocked jobs", s.name, len(s.blocked)))
	}
	now := s.sim.Now()
	s.idle = true
	length := now - s.busySince
	s.busyTotal += length
	s.stats.BusyPeriods++
	if length > s.stats.LongestBusyPeriod {
		s.stats.LongestBusyPeriod = length
	}
	for _, fn := range s.idleFns {
		fn(now)
	}
}

// Paused reports whether the stage is stalled (see Pause).
func (s *Stage) Paused() bool { return s.paused }

// Pause stalls the stage: the running job (if any) is preempted back to
// the ready queue and nothing dispatches until Resume. Work keeps
// queueing while paused, and the stage still counts as busy — a stalled
// stage with pending work is occupied, just not progressing. Pausing a
// paused stage is a no-op. This is the fault-injection point for stage
// stalls and crash-and-restart windows.
func (s *Stage) Pause() {
	if s.paused {
		return
	}
	if s.running != nil {
		s.preempt()
		s.ins.QueueDepth.Set(float64(len(s.ready)))
	}
	s.paused = true
}

// Resume ends a stall and re-establishes the scheduling invariant.
func (s *Stage) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	s.schedule()
}

// DropProgress models a crash: every queued job loses the progress of
// its current segment and will re-execute it from the start (lock state
// is preserved — a held lock survives the restart, mirroring a process
// that recovers its critical section from a journal). Consumed-time
// accounting is NOT rolled back: re-executed work is real computation,
// so a crash can push a job over its overrun budget. Call it between
// Pause and Resume. It returns the number of jobs affected.
func (s *Stage) DropProgress() int {
	if s.running != nil {
		panic(fmt.Sprintf("sched: stage %q: DropProgress while a job is running; Pause first", s.name))
	}
	n := 0
	for _, j := range s.ready {
		full := j.segments[j.segIdx].Duration
		if j.segRemaining != full {
			j.segRemaining = full
			n++
		}
	}
	return n
}
