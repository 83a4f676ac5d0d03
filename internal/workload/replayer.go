package workload

import (
	"fmt"
	"io"
	"math"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// ReplayOptions are the stress knobs that turn one recorded trace into a
// sweep of load levels.
type ReplayOptions struct {
	// TimeCompress > 1 plays the trace c× faster end to end: arrival
	// times AND deadlines are divided by c, so the same work arrives in
	// less time with proportionally tighter deadlines — a uniform
	// speed-up of the recorded world.
	TimeCompress float64
	// RateMultiplier > 1 multiplies the offered arrival rate by m by
	// dividing arrival times only; deadlines (and demands) are kept, so
	// the load rises while each task's own requirements stay as recorded.
	RateMultiplier float64
	// Limit stops the replay after this many records; 0 replays all.
	Limit uint64
	// FirstID is the task ID assigned to the first record; subsequent
	// records count up from it.
	FirstID task.ID
	// ReuseTask makes the replayer mutate and re-offer a single Task
	// value instead of allocating one per record — zero steady-state
	// allocations. Only safe when the sink consumes the task
	// synchronously and does not retain it (admission testing does not;
	// pipeline injection does — leave this false there). Without it,
	// tasks and their subtasks are carved from chunks of replayChunk
	// tasks, so one live task keeps its whole chunk reachable: a sink
	// that retains a sparse subset of tasks holds up to replayChunk
	// times their memory.
	ReuseTask bool
}

// replayChunk is how many tasks the replayer allocates at once when it
// does not reuse one task.
const replayChunk = 256

// Replayer streams a binary trace through a simulator, offering each
// record at its (scaled) recorded arrival time. Unlike Replay.Schedule,
// which pre-schedules every arrival, the replayer keeps exactly one
// pending arrival event and reads the next record when it fires —
// O(1) memory for traces of any length. It implements des.Timer.
type Replayer struct {
	sim   *des.Simulator
	tr    *TraceReader
	offer func(*task.Task)
	opts  ReplayOptions

	timeDiv float64 // combined divisor on arrival times
	rec     TraceRecord
	pending bool // rec holds a record not yet offered
	nextID  task.ID
	reused  *task.Task
	tasks   []task.Task    // unused rest of the current task chunk
	subs    []task.Subtask // its subtask storage, Stages() per task
	count   uint64
	err     error
}

// NewReplayer wraps an open trace reader. The replayer takes over the
// reader: do not call Next on it afterwards.
func NewReplayer(sim *des.Simulator, tr *TraceReader, opts ReplayOptions, offer func(*task.Task)) (*Replayer, error) {
	if offer == nil {
		return nil, fmt.Errorf("workload: replayer needs an offer sink")
	}
	if opts.TimeCompress == 0 {
		opts.TimeCompress = 1
	}
	if opts.RateMultiplier == 0 {
		opts.RateMultiplier = 1
	}
	if !(opts.TimeCompress > 0) || !(opts.RateMultiplier > 0) ||
		math.IsInf(opts.TimeCompress, 0) || math.IsInf(opts.RateMultiplier, 0) {
		return nil, fmt.Errorf("workload: replay knobs must be positive and finite (compress %v, rate %v)",
			opts.TimeCompress, opts.RateMultiplier)
	}
	rp := &Replayer{
		sim:     sim,
		tr:      tr,
		offer:   offer,
		opts:    opts,
		timeDiv: opts.TimeCompress * opts.RateMultiplier,
		nextID:  opts.FirstID,
	}
	if opts.ReuseTask {
		rp.reused = task.Chain(0, 0, 1, make([]float64, tr.Stages())...)
	}
	return rp, nil
}

// Replayed returns the number of records offered so far.
func (rp *Replayer) Replayed() uint64 { return rp.count }

// Err returns the first trace decode error, if any (io.EOF is a clean
// end and is not reported).
func (rp *Replayer) Err() error { return rp.err }

// Start schedules the first arrival. It returns io.EOF for an empty
// trace, a decode error, or nil with the replay armed; the simulator's
// run loop then drives everything.
func (rp *Replayer) Start() error {
	if !rp.advance() {
		if rp.err != nil {
			return rp.err
		}
		return io.EOF
	}
	rp.schedule()
	return nil
}

// advance reads the next record into rp.rec, honoring Limit. It reports
// whether a record is pending.
func (rp *Replayer) advance() bool {
	if rp.opts.Limit != 0 && rp.count >= rp.opts.Limit {
		rp.pending = false
		return false
	}
	if err := rp.tr.Next(&rp.rec); err != nil {
		if err != io.EOF {
			rp.err = err
		}
		rp.pending = false
		return false
	}
	rp.pending = true
	return true
}

// schedule arms the pending record's arrival event.
func (rp *Replayer) schedule() {
	at := rp.rec.Arrival / rp.timeDiv
	if at < rp.sim.Now() {
		at = rp.sim.Now() // guard against rounding on scaled times
	}
	rp.sim.AtTimer(at, rp)
}

// Fire offers the pending record and schedules the next one.
func (rp *Replayer) Fire(now des.Time) {
	rec := &rp.rec
	t := rp.reused
	if t == nil {
		t = rp.newTask()
	}
	t.ID = rp.nextID
	t.Arrival = now
	t.Deadline = rec.Deadline / rp.opts.TimeCompress
	for j, c := range rec.Demands {
		t.Subtasks[j] = task.NewSubtask(c)
	}
	t.Class = rp.className(rec.Class)
	rp.nextID++
	rp.count++
	rp.pending = false
	rp.offer(t)
	if rp.advance() {
		rp.schedule()
	}
}

// newTask hands out the next zeroed task of the current chunk, with its
// subtask slice capped so an append by the sink cannot reach a
// neighbour's subtasks.
func (rp *Replayer) newTask() *task.Task {
	k := rp.tr.Stages()
	if len(rp.tasks) == 0 {
		rp.tasks = make([]task.Task, replayChunk)
		rp.subs = make([]task.Subtask, replayChunk*k)
	}
	t := &rp.tasks[0]
	rp.tasks = rp.tasks[1:]
	t.Subtasks = rp.subs[:k:k]
	rp.subs = rp.subs[k:]
	return t
}

func (rp *Replayer) className(c int) string {
	if c < 0 {
		return ""
	}
	return rp.tr.Classes()[c]
}
