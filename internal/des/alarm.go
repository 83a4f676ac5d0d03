package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Alarm is a re-armable timer: a Timer registered once with a simulator
// that has at most one pending instant. It is the calendar-free path for
// processes that never have more than one event outstanding — an
// arrival stream's next arrival, a single-server stage's running-job
// completion — which would otherwise pay a ladder insert, a pop and a
// pooled record per event.
//
// Alarms order exactly like calendar events: Arm draws its tie-breaking
// sequence number from the simulator's counter at the call, as AtTimer
// does, and re-arming a pending alarm is a cancel plus a fresh schedule.
// So replacing an AtTimer/Cancel pair by Arm/Disarm leaves the fire
// order bit-identical.
//
// An Alarm is a small value handle; copy it freely. The zero Alarm
// belongs to no simulator: Armed and Disarm report false on it and Arm
// panics. An alarm lives as long as its simulator — there is no
// unregistering — so register one per long-lived process (a stage, a
// source), not per event.
type Alarm struct {
	sim *Simulator
	i   int32
}

// alarmKey is one alarm's pending instant, kept in a pointer-free array
// beside the winner tree. armed, not the key, says whether the alarm is
// pending: an alarm armed at +Inf is pending like an event scheduled
// there. A disarmed key also holds idleKey, so the tree compares keys
// alone: idleKey ranks after every armed key, one armed at +Inf
// included, because no Arm draws the largest seq.
type alarmKey struct {
	t     Time
	seq   uint64
	armed bool
}

var idleKey = alarmKey{t: math.Inf(1), seq: math.MaxUint64}

// precedes returns 1 if a fires ahead of b, by (time, seq), else 0. It
// compares the two keys as 128-bit integers, time bits above seq, with
// one borrow chain and no branch: every key's time is at least the
// clock, so it is +0, -0 or positive (or +Inf), and shifting the sign bit
// out leaves bit patterns that order like the times and equate ±0. The
// winner tree compares keys of a running simulation, whose order a
// branch predictor cannot learn.
func (a *alarmKey) precedes(b *alarmKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.t)<<1, math.Float64bits(b.t)<<1, borrow)
	return borrow
}

// before reports whether the alarm fires ahead of the calendar event e.
func (a *alarmKey) before(e *entry) bool {
	return a.t < e.t || (a.t == e.t && a.seq < e.seq)
}

// alarms is the simulator's alarm set: keys padded to a power-of-two
// capacity n ≥ 2 with disarmed entries, and a winner (tournament) tree
// over them. win[n+i] = i are the leaves; win[p] for 1 ≤ p < n holds
// the earliest alarm of p's subtree, so win[1] is the earliest overall.
// Arming or disarming one alarm replays its leaf-to-root path, O(log n).
type alarms struct {
	keys []alarmKey // idleKey when disarmed
	tms  []Timer    // registered targets, one per alarm
	win  []int32
}

// NewAlarm registers tm as the target of a new, disarmed alarm. Each Arm
// then schedules one tm.Fire; Fire may re-arm or disarm this or any
// other alarm. Registration is amortized O(1) and may happen at any
// point of a run.
func (s *Simulator) NewAlarm(tm Timer) Alarm {
	if tm == nil {
		panic("des: alarm with nil timer")
	}
	a := &s.al
	i := len(a.tms)
	if i == len(a.keys) {
		a.grow()
	}
	a.tms = append(a.tms, tm)
	return Alarm{sim: s, i: int32(i)}
}

// grow doubles the capacity and rebuilds the tree from the keys.
func (a *alarms) grow() {
	n := 2 * len(a.keys)
	if n < 2 {
		n = 2
	}
	keys := make([]alarmKey, n)
	for i := copy(keys, a.keys); i < n; i++ {
		keys[i] = idleKey
	}
	a.keys = keys
	a.win = make([]int32, 2*n)
	for i := 0; i < n; i++ {
		a.win[n+i] = int32(i)
	}
	for p := n - 1; p > 0; p-- {
		a.play(p)
	}
}

// play recomputes node p's winner from its children's.
func (a *alarms) play(p int) {
	l, r := a.win[2*p], a.win[2*p+1]
	m := -int32(a.keys[r].precedes(&a.keys[l])) // all ones when r wins
	a.win[p] = l ^ (l^r)&m
}

// fix replays alarm i's path to the root after its key changed.
func (a *alarms) fix(i int32) {
	for p := (len(a.keys) + int(i)) >> 1; p > 0; p >>= 1 {
		a.play(p)
	}
}

// first returns the earliest armed alarm, if any.
func (a *alarms) first() (int32, bool) {
	if len(a.win) == 0 {
		return 0, false
	}
	i := a.win[1]
	return i, a.keys[i].armed
}

// Arm sets the alarm to fire at absolute time t, replacing any pending
// instant. Like AtTimer it draws a fresh sequence number, so the alarm
// fires after every event and alarm already scheduled for t. Arming in
// the past or at NaN panics; +Inf is accepted, as by AtTimer.
func (a Alarm) Arm(t Time) {
	s := a.sim
	if !(t >= s.now) { // before now, or NaN
		panic(fmt.Sprintf("des: arming alarm at %v, before now %v or NaN", t, s.now))
	}
	k := &s.al.keys[a.i]
	k.t, k.seq, k.armed = t, s.seq, true
	s.seq++
	s.al.fix(a.i)
}

// ArmAfter sets the alarm to fire d seconds from now. Negative delays
// panic.
func (a Alarm) ArmAfter(d Time) { a.Arm(a.sim.now + d) }

// Disarm withdraws the pending instant and reports whether there was
// one.
func (a Alarm) Disarm() bool {
	if a.sim == nil {
		return false
	}
	s := a.sim
	k := &s.al.keys[a.i]
	if !k.armed {
		return false
	}
	*k = idleKey
	s.al.fix(a.i)
	return true
}

// Armed reports whether the alarm has a pending instant.
func (a Alarm) Armed() bool {
	return a.sim != nil && a.sim.al.keys[a.i].armed
}

// When returns the pending instant; the second result is false when the
// alarm is disarmed.
func (a Alarm) When() (Time, bool) {
	if !a.Armed() {
		return 0, false
	}
	return a.sim.al.keys[a.i].t, true
}

// fireAlarm runs alarm i, which Step found to be the earliest pending
// event. The alarm is disarmed before its Fire runs, but its tree path
// is replayed only afterwards, and only if Fire did not re-arm it (Arm
// replays the path itself): a self-re-arming process pays one path per
// fire, not two. While Fire runs, the nodes on that path may name the
// disarmed alarm; its idleKey ranks it last, and the replay after Fire
// recomputes every one of them, so the tree is exact again before Step
// returns. (NewAlarm's rebuild during Fire is exact outright.)
func (s *Simulator) fireAlarm(i int32) {
	k := &s.al.keys[i]
	t := k.t
	*k = idleKey
	s.now = t
	s.steps++
	s.al.tms[i].Fire(t)
	if !s.al.keys[i].armed { // re-index: Fire may have grown keys
		s.al.fix(i)
	}
}
