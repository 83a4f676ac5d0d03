package des

import (
	"math"
	"strings"
	"testing"
)

// tag records the order fires happen in.
type tag struct {
	log *[]string
	s   string
}

func (g tag) Fire(Time) { *g.log = append(*g.log, g.s) }

// TestAlarmOrderAtTies pins the tie rule: at one instant, events and
// alarms fire in the order they were scheduled or (re-)armed, and a
// re-arm goes behind everything already scheduled for its instant.
func TestAlarmOrderAtTies(t *testing.T) {
	var log []string
	var s Simulator // the zero value accepts alarms
	a := s.NewAlarm(tag{&log, "a"})
	b := s.NewAlarm(tag{&log, "b"})
	a.Arm(1)
	s.AtTimer(1, tag{&log, "e1"})
	b.Arm(1)
	s.AtTimer(1, tag{&log, "e2"})
	a.Arm(1) // re-arm: now behind e2
	if got := pending(&s); got != 4 {
		t.Fatalf("Pending() = %d, want 4", got)
	}
	s.Run()
	want := "e1 b e2 a"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if s.Steps() != 4 || pending(&s) != 0 {
		t.Fatalf("Steps() = %d, Pending() = %d; want 4, 0", s.Steps(), pending(&s))
	}
}

// TestAlarmRunUntilHorizon: an alarm exactly at the horizon fires, one
// just past it does not, and the clock lands on the horizon.
func TestAlarmRunUntilHorizon(t *testing.T) {
	var log []string
	s := New()
	at := s.NewAlarm(tag{&log, "at"})
	past := s.NewAlarm(tag{&log, "past"})
	at.Arm(2)
	past.Arm(math.Nextafter(2, 3))
	s.RunUntil(2)
	if strings.Join(log, " ") != "at" || s.Now() != 2 {
		t.Fatalf("fired %q, clock %v; want \"at\", 2", strings.Join(log, " "), s.Now())
	}
	if !past.Armed() || at.Armed() || pending(s) != 1 {
		t.Fatalf("armed: at %v, past %v, Pending() %d", at.Armed(), past.Armed(), pending(s))
	}
}

// TestAlarmArmAtNowAndInf: Arm at the clock fires before the clock
// moves; Arm at +Inf is pending like AtTimer(+Inf) and fires last.
func TestAlarmArmAtNowAndInf(t *testing.T) {
	var log []string
	s := New()
	s.AtTimer(5, tag{&log, "e"})
	inf := s.NewAlarm(tag{&log, "inf"})
	inf.Arm(math.Inf(1))
	s.AtTimer(math.Inf(1), tag{&log, "einf"})
	now := s.NewAlarm(tag{&log, "now"})
	s.RunUntil(3)
	now.Arm(s.Now())
	if at, ok := inf.When(); !ok || !math.IsInf(at, 1) {
		t.Fatalf("When() = %v, %v; want +Inf, true", at, ok)
	}
	s.Run()
	if got, want := strings.Join(log, " "), "now e inf einf"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Arm before now did not panic")
		}
	}()
	inf.Arm(1)
}

// TestZeroAlarm: the zero Alarm belongs to no simulator.
func TestZeroAlarm(t *testing.T) {
	var a Alarm
	if a.Armed() || a.Disarm() {
		t.Fatal("zero Alarm reports armed")
	}
	if _, ok := a.When(); ok {
		t.Fatal("zero Alarm has an instant")
	}
}

// TestAlarmSignedZeroTie: an alarm armed at -0 ties with one at +0 and
// fires by arm order, as calendar events at ±0 do.
func TestAlarmSignedZeroTie(t *testing.T) {
	var log []string
	s := New()
	pos := s.NewAlarm(tag{&log, "+0"})
	neg := s.NewAlarm(tag{&log, "-0"})
	pos.Arm(0)
	neg.Arm(math.Copysign(0, -1))
	s.Run()
	if got, want := strings.Join(log, " "), "+0 -0"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}
