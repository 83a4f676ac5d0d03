package des

import (
	"sort"
	"testing"
	"testing/quick"
)

// pending counts the scheduled events and armed alarms that have neither
// fired nor been withdrawn, by a scan of the simulator's records.
func pending(s *Simulator) int {
	n := 0
	for i := range s.recs {
		if s.recs[i].state == statePending {
			n++
		}
	}
	for _, k := range s.al.keys {
		if k.armed {
			n++
		}
	}
	return n
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want schedule order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After(5) at t=10 fired at %v, want 15", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New()
	ran := false
	e := s.At(3, func() { ran = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel of a pending event returned false")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event executed")
	}
	if got := s.State(e); got != StateCancelled {
		t.Fatalf("State = %v, want cancelled", got)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := New()
	e := s.At(3, func() {})
	if !s.Cancel(e) {
		t.Fatal("first Cancel returned false")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true") // must not double-count or corrupt
	}
	if s.Cancel(Event{}) {
		t.Fatal("Cancel of the zero Event returned true")
	}
	s.At(1, func() {})
	s.Run()
	if s.Now() != 1 {
		t.Fatalf("clock at %v, want 1", s.Now())
	}
}

// TestCancelAfterFireIsNoOp pins the repaired footgun: cancelling an event
// that already ran must report false and leave the event's state as fired —
// the old core silently flipped it to cancelled, rewriting history.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run()
	if s.Cancel(e) {
		t.Fatal("Cancel after fire returned true")
	}
	if got := s.State(e); got != StateFired {
		t.Fatalf("State after fire+Cancel = %v, want fired", got)
	}
}

func TestEventStateLifecycle(t *testing.T) {
	s := New()
	if got := s.State(Event{}); got != StateUnknown {
		t.Fatalf("State(zero) = %v, want unknown", got)
	}
	e := s.At(2, func() {})
	if got := s.State(e); got != StatePending {
		t.Fatalf("State = %v, want pending", got)
	}
	s.Run()
	if got := s.State(e); got != StateFired {
		t.Fatalf("State after run = %v, want fired", got)
	}
	// Reusing the slot for a new event invalidates the old handle.
	e2 := s.At(5, func() {})
	if got := s.State(e); got != StateUnknown {
		t.Fatalf("State of recycled handle = %v, want unknown", got)
	}
	if got := s.State(e2); got != StatePending {
		t.Fatalf("State of new handle = %v, want pending", got)
	}
}

// TestStateVisibleInsideCallback: while the callback runs, its own event
// reads as fired, not pending or unknown.
func TestStateVisibleInsideCallback(t *testing.T) {
	s := New()
	var e Event
	var during EventState
	e = s.At(1, func() { during = s.State(e) })
	s.Run()
	if during != StateFired {
		t.Fatalf("State inside callback = %v, want fired", during)
	}
}

func TestCancelMiddleOfCalendar(t *testing.T) {
	s := New()
	var fired []Time
	var events []Event
	for _, at := range []Time{1, 2, 3, 4, 5, 6, 7, 8} {
		at := at
		events = append(events, s.At(at, func() { fired = append(fired, at) }))
	}
	s.Cancel(events[3]) // t=4
	s.Cancel(events[5]) // t=6
	s.Run()
	want := []Time{1, 2, 3, 5, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	s := New()
	count := 0
	// A self-rescheduling event stream: one event per time unit.
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.At(1, tick)
	s.RunUntil(10)
	if count != 10 {
		t.Fatalf("executed %d ticks, want 10", count)
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %v, want 10", s.Now())
	}
}

func TestRunUntilAdvancesClockOnEmptyCalendar(t *testing.T) {
	s := New()
	s.At(2, func() {})
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("clock at %v, want 100", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before now")
		}
	}()
	s.At(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	s.At(1, nil)
}

func TestNilTimerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil timer")
		}
	}()
	s.AtTimer(1, nil)
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty calendar returned true")
	}
	s.At(1, func() {})
	if !s.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if s.Step() {
		t.Fatal("Step after drain returned true")
	}
	if s.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1", s.Steps())
	}
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 64 {
			s.After(0.5, recurse)
		}
	}
	s.At(0, recurse)
	s.Run()
	if depth != 64 {
		t.Fatalf("recursive scheduling reached depth %d, want 64", depth)
	}
}

// ticker drives the Timer dispatch path: a self-rescheduling arrival
// process implemented without closures.
type ticker struct {
	s     *Simulator
	every Time
	until Time
	count int
	last  Time
}

func (tk *ticker) Fire(now Time) {
	tk.count++
	tk.last = now
	if now+tk.every <= tk.until {
		tk.s.AtTimer(now+tk.every, tk)
	}
}

func TestTimerDispatchPath(t *testing.T) {
	s := New()
	tk := &ticker{s: s, every: 1, until: 100}
	s.AtTimer(1, tk)
	s.Run()
	if tk.count != 100 {
		t.Fatalf("timer fired %d times, want 100", tk.count)
	}
	if tk.last != 100 || s.Now() != 100 {
		t.Fatalf("last fire at %v (clock %v), want 100", tk.last, s.Now())
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	s := New()
	e1 := s.At(1, func() {})
	s.At(2, func() {})
	s.At(3, func() {})
	if pending(s) != 3 {
		t.Fatalf("Pending = %d, want 3", pending(s))
	}
	s.Cancel(e1)
	if pending(s) != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", pending(s))
	}
	s.Step()
	if pending(s) != 1 {
		t.Fatalf("Pending after step = %d, want 1", pending(s))
	}
	s.Run()
	if pending(s) != 0 {
		t.Fatalf("Pending after drain = %d, want 0", pending(s))
	}
}

// TestSlotReuseDoesNotCrossCancel: a handle kept across its event's
// completion must not be able to cancel the slot's next tenant.
func TestSlotReuseDoesNotCrossCancel(t *testing.T) {
	s := New()
	old := s.At(1, func() {})
	s.Run() // fires; slot returns to the pool
	ran := false
	fresh := s.At(2, func() { ran = true })
	if s.Cancel(old) {
		t.Fatal("stale handle cancelled the slot's new event")
	}
	s.Run()
	if !ran {
		t.Fatal("new event did not run")
	}
	_ = fresh
}

// TestOrderingQuick property: for any set of schedule times, execution
// order is a non-decreasing sequence of times.
func TestOrderingQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 16
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCancellationQuick property: with an arbitrary subset cancelled, only
// and exactly the surviving events execute, in order.
func TestCancellationQuick(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		s := New()
		fired := map[int]bool{}
		events := make([]Event, len(raw))
		for i, r := range raw {
			i := i
			events[i] = s.At(Time(r), func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := range raw {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range raw {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
