package des

import (
	"fmt"
	"math"
)

// Time is a simulated instant, in seconds since the start of the run.
// Simulated time is represented as float64 (the usual discrete-event
// convention) so that rate arithmetic does not overflow or round the way
// integer nanoseconds would.
type Time = float64

// Timer is the allocation-free dispatch target: a value scheduled with
// AtTimer has its Fire method invoked when the event matures. Recurring
// processes (arrival generators, per-job completion events) implement
// Timer once and reschedule themselves from inside Fire, so
// steady-state scheduling allocates nothing — unlike the func() path,
// where each capturing closure is a fresh heap object.
type Timer interface {
	// Fire runs the event's action at its scheduled instant.
	Fire(now Time)
}

// Event is a handle to a scheduled callback, returned by At, After,
// and AtTimer. It is a value (an index plus a generation
// check into the simulator's pooled event records), so handles can be
// stored, copied, and dropped freely without keeping event memory
// alive. The zero Event is invalid and safe to Cancel or query: it
// belongs to no simulator.
type Event struct {
	slot int32
	gen  uint32
}

// EventState is the lifecycle position of a scheduled event as reported
// by Simulator.State.
type EventState uint8

const (
	// StateUnknown means the handle is zero, from another simulator, or
	// its pooled record has been recycled by a later event. A recycled
	// record implies the event is long over (it fired or was cancelled
	// before the slot could be reused), but the outcome is no longer
	// tracked.
	StateUnknown EventState = iota
	// StatePending means the event is scheduled and will fire.
	StatePending
	// StateFired means the event's callback ran.
	StateFired
	// StateCancelled means Cancel withdrew the event before it fired.
	StateCancelled
)

// String returns the state's label.
func (s EventState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFired:
		return "fired"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// record states; see EventState for the caller-visible mapping.
const (
	statePending uint8 = iota
	stateFired
	stateCancelled
)

// record is one pooled, pointer-free event. Records live in the
// simulator's recs arena and are addressed by slot index; the ladder
// queue stores bare slot numbers, so growing or draining the calendar
// never moves or reallocates per-event state. gen increments each time
// the slot is reissued, which is what lets an Event handle detect — in
// O(1), without unscheduling anything — that its record now belongs to
// a different event (lazy cancellation).
type record struct {
	time  Time
	seq   uint64
	fn    func()
	tm    Timer
	gen   uint32
	state uint8
}

// Simulator is a discrete-event simulation clock and calendar, with a
// set of re-armable alarms beside the calendar (see Alarm). The zero
// value is a simulator at time 0 with an empty calendar and no alarms.
type Simulator struct {
	recs []record
	free []int32

	now   Time
	seq   uint64
	steps uint64

	q  ladder
	al alarms
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Steps returns the number of events executed so far, alarm fires
// included.
func (s *Simulator) Steps() uint64 { return s.steps }

// schedule validates, allocates a pooled record, and files it in the
// calendar. Exactly one of fn and tm must be non-nil.
func (s *Simulator) schedule(t Time, fn func(), tm Timer) Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling event at NaN time")
	}
	if fn == nil && tm == nil {
		panic("des: scheduling nil callback")
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.recs = append(s.recs, record{})
		slot = int32(len(s.recs) - 1)
	}
	r := &s.recs[slot]
	r.time, r.seq, r.fn, r.tm = t, s.seq, fn, tm
	r.gen++
	if r.gen == 0 { // skip the invalid generation on wraparound
		r.gen = 1
	}
	r.state = statePending
	s.seq++
	s.q.insert(s, slot, t)
	return Event{slot: slot, gen: r.gen}
}

// At schedules fn to run at absolute time t and returns a cancellable
// handle. Scheduling in the past is a simulation bug, so it panics.
func (s *Simulator) At(t Time, fn func()) Event {
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	return s.schedule(t, fn, nil)
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Simulator) After(d Time, fn func()) Event {
	return s.At(s.now+d, fn)
}

// AtTimer schedules tm.Fire to run at absolute time t. It is the
// allocation-free twin of At: the simulator stores the interface value
// in a pooled record, so a caller that reuses one Timer (typically a
// pointer to a field of an object it already owns) schedules recurring
// events with zero allocations.
func (s *Simulator) AtTimer(t Time, tm Timer) Event {
	if tm == nil {
		panic("des: scheduling nil timer")
	}
	return s.schedule(t, nil, tm)
}

// rec resolves a handle to its record, or nil if the handle is zero,
// foreign, or its slot has been reissued to a later event.
func (s *Simulator) rec(e Event) *record {
	if e.gen == 0 || e.slot < 0 || int(e.slot) >= len(s.recs) {
		return nil
	}
	r := &s.recs[e.slot]
	if r.gen != e.gen {
		return nil
	}
	return r
}

// Cancel withdraws a scheduled event and reports whether it did: true
// means the event was pending and will now never fire. Cancelling an
// event that already fired, was already cancelled, or is a zero/stale
// handle is a no-op returning false — in particular, an event that has
// fired stays StateFired; Cancel never rewrites history. Cancellation
// is O(1) and lazy: the record is marked and reclaimed when the
// calendar drains past it.
func (s *Simulator) Cancel(e Event) bool {
	r := s.rec(e)
	if r == nil || r.state != statePending {
		return false
	}
	r.state = stateCancelled
	r.fn, r.tm = nil, nil // release the callback now; the slot drains later
	return true
}

// State reports the event's lifecycle position: pending, fired, or
// cancelled. It returns StateUnknown for the zero Event, handles from
// other simulators, and handles whose pooled record has since been
// reissued (possible only after the event ended).
func (s *Simulator) State(e Event) EventState {
	r := s.rec(e)
	if r == nil {
		return StateUnknown
	}
	switch r.state {
	case statePending:
		return StatePending
	case stateFired:
		return StateFired
	default:
		return StateCancelled
	}
}

// freeSlot returns a drained record to the pool. The generation is
// bumped at reissue, not here, so post-fire State queries stay accurate
// until the slot is actually reused.
func (s *Simulator) freeSlot(slot int32) {
	r := &s.recs[slot]
	r.fn, r.tm = nil, nil
	s.free = append(s.free, slot)
}

// Step executes the earliest pending event or alarm, by (time, seq).
// It returns false when the calendar is empty and no alarm is armed.
func (s *Simulator) Step() bool {
	slot, ok := s.q.front(s)
	if i, armed := s.al.first(); armed && (!ok || s.al.keys[i].before(&s.q.bottom[s.q.bottomHead])) {
		s.fireAlarm(i)
		return true
	}
	if !ok {
		return false
	}
	s.q.bottomHead++
	r := &s.recs[slot]
	t, fn, tm := r.time, r.fn, r.tm
	r.state = stateFired
	s.now = t
	s.steps++
	// The callback may schedule events, growing recs and invalidating r;
	// everything needed was copied out above. The slot is recycled after
	// the callback so reentrant State queries see StateFired.
	if tm != nil {
		tm.Fire(t)
	} else {
		fn()
	}
	s.freeSlot(slot)
	return true
}

// peek returns the instant of the earliest pending event or alarm.
func (s *Simulator) peek() (Time, bool) {
	t, ok := s.q.peek(s)
	if i, armed := s.al.first(); armed && (!ok || s.al.keys[i].t < t) {
		return s.al.keys[i].t, true
	}
	return t, ok
}

// RunUntil executes events and alarms in order until none is left at or
// before horizon, then advances the clock to horizon.
func (s *Simulator) RunUntil(horizon Time) {
	for {
		t, ok := s.peek()
		if !ok || t > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run executes every pending event and alarm, including those scheduled
// by other events, until the calendar drains and no alarm is armed. Use
// RunUntil for open-loop workloads that schedule arrivals indefinitely.
func (s *Simulator) Run() {
	for s.Step() {
	}
}
