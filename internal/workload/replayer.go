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
	// Deprecated: ReuseTask is ignored. The replayer always offers one
	// reused task value.
	ReuseTask bool
}

// Replayer streams a binary trace through a simulator, offering each
// record at its (scaled) recorded arrival time. It keeps exactly one
// pending arrival — an alarm it re-arms from its own Fire — and reads
// the next record when it fires: O(1) memory for traces of any length,
// and no calendar traffic. It implements des.Timer.
//
// Ties: events due at one time run in the order they were scheduled, and
// each arrival is armed when the one before it fires (the first at
// Start). So an arrival runs after the completions, idle resets and
// caller events already scheduled for its time when it was armed; to see
// the state after an arrival at t, schedule for t once it is offered.
type Replayer struct {
	sim   *des.Simulator
	next  des.Alarm // the pending record's arrival
	tr    *TraceReader
	offer func(*task.Task)
	opts  ReplayOptions

	timeDiv float64 // combined divisor on arrival times
	rec     TraceRecord
	pending bool // rec holds a record not yet offered
	nextID  task.ID
	t       task.Task      // the one task value offered for every record
	subs    []task.Subtask // its subtasks, Stages() of them
	count   uint64
	err     error
}

// NewReplayer wraps an open trace reader. The replayer takes over the
// reader: do not call Next on it afterwards. It offers every record as
// one reused task value, rewritten before each call, so offer must not
// keep the pointer past the call; the pipelines copy what they keep.
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
		subs:    make([]task.Subtask, tr.Stages()),
	}
	rp.next = sim.NewAlarm(rp)
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
	rp.next.Arm(at)
}

// Fire offers the pending record and schedules the next one.
func (rp *Replayer) Fire(now des.Time) {
	rec := &rp.rec
	for j, c := range rec.Demands {
		rp.subs[j] = task.NewSubtask(c)
	}
	// Every field is rewritten, in place: nothing a sink wrote reaches
	// the next record.
	t := &rp.t
	t.ID, t.Arrival, t.Deadline = rp.nextID, now, rec.Deadline/rp.opts.TimeCompress
	t.Subtasks, t.Graph, t.Priority, t.Importance = rp.subs, nil, 0, 0
	t.Class = rp.className(rec.Class)
	rp.nextID++
	rp.count++
	rp.pending = false
	rp.offer(&rp.t)
	if rp.advance() {
		rp.schedule()
	}
}

func (rp *Replayer) className(c int) string {
	if c < 0 {
		return ""
	}
	return rp.tr.Classes()[c]
}
