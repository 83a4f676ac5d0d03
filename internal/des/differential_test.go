package des

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference implementation: the pre-rewrite binary-heap calendar, kept
// verbatim (modulo unexported names) as the ordering oracle. The ladder
// queue must pop in exactly the same (time, seq) order, including ties.
// ---------------------------------------------------------------------------

type refEvent struct {
	time      Time
	seq       uint64
	index     int
	id        int // caller tag for comparing pop streams
	cancelled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refSim struct {
	queue refQueue
	now   Time
	seq   uint64
}

func (s *refSim) schedule(t Time, id int) *refEvent {
	e := &refEvent{time: t, seq: s.seq, id: id}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// pop returns the next uncancelled event, mirroring the old Step loop.
func (s *refSim) pop() (*refEvent, bool) {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*refEvent)
		if e.cancelled {
			continue
		}
		s.now = e.time
		return e, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Differential harness: apply an identical random operation stream to the
// ladder simulator and the reference heap, interleaving schedules, cancels,
// and pops, and require identical pop streams.
// ---------------------------------------------------------------------------

// timeDist draws scheduling offsets with deliberately nasty shapes: exact
// ties, sub-ulp clusters, heavy far-future tails, and occasional +Inf.
func timeDist(rng *rand.Rand, now Time) Time {
	switch rng.Intn(10) {
	case 0:
		return now // exact tie with the clock
	case 1:
		return now + Time(rng.Intn(4)) // small integer ties
	case 2:
		return now + rng.Float64()*1e-9 // dense cluster, sub-bucket widths
	case 3:
		return now + 1000 + rng.Float64()*1e6 // far future (top)
	case 4:
		if rng.Intn(50) == 0 {
			return math.Inf(1) // degenerate-span stress
		}
		return now + rng.Float64()*100
	default:
		return now + rng.Float64()*50
	}
}

// nearDist draws the times a preemptive fixed-priority stage schedules:
// mostly completions a little past the clock, which land inside
// bottom's span just past its head, plus exact ties with the clock and
// with each other, sub-ulp clusters, and some farther-out events that
// keep the rungs and top populated.
func nearDist(rng *rand.Rand, now Time) Time {
	switch rng.Intn(10) {
	case 0:
		return now // exact tie with the clock
	case 1:
		return now + 0.25*Time(rng.Intn(4)) // quantized ties
	case 2:
		return now + rng.Float64()*1e-9 // dense cluster
	case 3, 4:
		return now + 5 + rng.Float64()*200 // farther out: rungs and top
	default:
		return now + rng.Float64()*2 // near future: bottom
	}
}

// diffShape is one operation stream of the differential harness.
type diffShape struct {
	at func(rng *rand.Rand, now Time) Time // schedule times
	// schedules and pops are the operations, out of every 10, that
	// schedule and pop; the rest cancel.
	schedules, pops int
	// newest makes half the cancels withdraw the newest event, as a
	// preemption withdraws the completion it armed moments before.
	newest bool
}

// diffStats counts where the harness's schedules landed.
type diffStats struct {
	schedules  int
	bottom     int // inserted into bottom's undrained span
	headShifts int // spliced in by moving the entries before it
}

func runDifferential(t *testing.T, seed int64, ops int, shape diffShape) diffStats {
	t.Helper()
	var st diffStats
	rng := rand.New(rand.NewSource(seed))
	lad := New()
	ref := &refSim{}

	type pair struct {
		e Event
		r *refEvent
	}
	var livePairs []pair
	nextID := 0
	firedLad := []int{} // ids in ladder pop order
	firedRef := []int{}

	popOne := func() bool {
		slot, ok := lad.q.pop(lad)
		var ladID int
		if ok {
			r := &lad.recs[slot]
			lad.now = r.time
			ladID = int(r.seq) // seq doubles as id: both sides schedule in lockstep
			lad.recs[slot].state = stateFired
			lad.freeSlot(slot)
		}
		re, rok := ref.pop()
		if ok != rok {
			t.Fatalf("seed %d: ladder pop ok=%v, heap ok=%v", seed, ok, rok)
		}
		if !ok {
			return false
		}
		if lad.now != ref.now {
			t.Fatalf("seed %d: ladder time %v, heap time %v", seed, lad.now, ref.now)
		}
		if ladID != re.id {
			t.Fatalf("seed %d: ladder popped event %d, heap popped %d at t=%v", seed, ladID, re.id, ref.now)
		}
		firedLad = append(firedLad, ladID)
		firedRef = append(firedRef, re.id)
		return true
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < shape.schedules:
			at := shape.at(rng, lad.now)
			id := nextID
			nextID++
			undrained, head := len(lad.q.bottom)-lad.q.bottomHead, lad.q.bottomHead
			e := lad.schedule(at, func() {}, nil)
			st.schedules++
			if len(lad.q.bottom)-lad.q.bottomHead == undrained+1 {
				st.bottom++
				if lad.q.bottomHead < head {
					st.headShifts++
				}
			}
			r := ref.schedule(at, id)
			if int(lad.recs[e.slot].seq) != id {
				t.Fatalf("seed %d: seq drifted from id", seed)
			}
			livePairs = append(livePairs, pair{e, r})
		case op < shape.schedules+shape.pops:
			popOne()
		default: // cancel a random outstanding event (possibly already fired)
			if len(livePairs) == 0 {
				continue
			}
			k := rng.Intn(len(livePairs))
			if shape.newest && rng.Intn(2) == 0 {
				k = len(livePairs) - 1
			}
			p := livePairs[k]
			got := lad.Cancel(p.e)
			want := !p.r.cancelled && containsRef(ref.queue, p.r)
			if got != want {
				t.Fatalf("seed %d: Cancel returned %v, reference liveness %v", seed, got, want)
			}
			p.r.cancelled = true
			livePairs[k] = livePairs[len(livePairs)-1]
			livePairs = livePairs[:len(livePairs)-1]
		}
	}
	// Drain both completely.
	for popOne() {
	}
	if len(firedLad) != len(firedRef) {
		t.Fatalf("seed %d: ladder fired %d, heap fired %d", seed, len(firedLad), len(firedRef))
	}
	if pending(lad) != 0 {
		t.Fatalf("seed %d: %d events stranded in the ladder", seed, pending(lad))
	}
	return st
}

func containsRef(q refQueue, e *refEvent) bool {
	for _, x := range q {
		if x == e {
			return true
		}
	}
	return false
}

// TestDifferentialVsReferenceHeap drives both calendars through identical
// randomized schedule/cancel/pop streams — with exact time ties, sub-ulp
// clusters, far-future tails, and +Inf — and requires bit-identical pop
// order and clock trajectories.
func TestDifferentialVsReferenceHeap(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 2000
	}
	for seed := int64(1); seed <= 12; seed++ {
		runDifferential(t, seed, ops, diffShape{at: timeDist, schedules: 6, pops: 2})
	}
}

// TestDifferentialPreemptiveStage drives the harness with a preemptive
// stage's shape: a steady population, most schedules just past the
// clock (inside bottom's span), exact-time ties, and cancels of the
// event armed moments before. It also checks the shape reaches what it
// targets: bottom inserts, including head-side splices.
func TestDifferentialPreemptiveStage(t *testing.T) {
	ops := 40000
	if testing.Short() {
		ops = 4000
	}
	var sum diffStats
	for seed := int64(1); seed <= 8; seed++ {
		st := runDifferential(t, seed, ops, diffShape{at: nearDist, schedules: 4, pops: 4, newest: true})
		sum.schedules += st.schedules
		sum.bottom += st.bottom
		sum.headShifts += st.headShifts
	}
	if sum.bottom < sum.schedules/3 || sum.headShifts < sum.bottom/4 {
		t.Fatalf("%d schedules reached bottom %d times, head-side %d: the shape misses its target",
			sum.schedules, sum.bottom, sum.headShifts)
	}
}

// TestInsertBottomHeadShift pins the splice at bottomHead > 0: an insert
// with fewer entries before it than after moves those entries one slot
// toward the head (down to none moved, at the head itself), a later
// one moves the tail, and either way bottom pops in (time, seq) order.
func TestInsertBottomHeadShift(t *testing.T) {
	s := New()
	var fired []int // schedule-call indices, in pop order
	n := 0
	at := func(when Time) {
		id := n
		n++
		s.At(when, func() { fired = append(fired, id) })
	}
	for i := 1; i <= 10; i++ {
		at(Time(i)) // one small top: sorted straight into bottom
	}
	for i := 0; i < 3; i++ {
		s.Step()
	}
	q := &s.q
	steps := []struct {
		at   Time
		head int // bottomHead after the insert
	}{
		{4.5, 2},  // one entry precedes it: head-side
		{9.5, 2},  // six precede it: tail-side
		{4, 1},    // ties the 4 already queued and goes after it: head-side
		{3.5, 0},  // before every entry: lands in the drained slot
		{3.75, 0}, // head 0: tail-side
	}
	for _, st := range steps {
		at(st.at)
		if q.bottomHead != st.head {
			t.Fatalf("insert at %v: bottomHead %d, want %d", st.at, q.bottomHead, st.head)
		}
	}
	// Times 1…10 are calls 0…9; then 4.5, 9.5, 4, 3.5, 3.75 are 10…14.
	want := []int{0, 1, 2, 13, 14, 3, 12, 10, 4, 5, 6, 7, 8, 11, 9}
	if undrained := len(q.bottom) - q.bottomHead; undrained != len(want)-3 {
		t.Fatalf("bottom holds %d undrained entries, want %d", undrained, len(want)-3)
	}
	s.Run()
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestDifferentialMassTies floods both calendars with events at a handful
// of distinct times so nearly every comparison is a (time, seq) tie.
func TestDifferentialMassTies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lad := New()
	ref := &refSim{}
	const n = 5000
	for i := 0; i < n; i++ {
		at := Time(rng.Intn(7)) * 10
		lad.schedule(at, func() {}, nil)
		ref.schedule(at, i)
	}
	for i := 0; i < n; i++ {
		slot, ok := lad.q.pop(lad)
		if !ok {
			t.Fatalf("ladder drained early at %d", i)
		}
		r := &lad.recs[slot]
		lad.now = r.time
		id := int(r.seq)
		r.state = stateFired
		lad.freeSlot(slot)
		re, _ := ref.pop()
		if id != re.id || lad.now != ref.now {
			t.Fatalf("tie order diverged at %d: ladder (%d,%v) heap (%d,%v)", i, id, lad.now, re.id, ref.now)
		}
	}
}

// TestNeverEarly property: under a reschedule-heavy self-spawning workload
// with nasty time distributions, the clock never runs backward (each event
// fires at exactly its scheduled time by construction, so monotonicity is
// the whole never-early property).
func TestNeverEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	last := math.Inf(-1)
	violations := 0
	count := 0
	var spawn func()
	spawn = func() {
		if s.Now() < last {
			violations++
		}
		last = s.Now()
		if count < 50000 {
			count++
			s.At(timeDist(rng, s.Now()), spawn)
		}
	}
	for i := 0; i < 8; i++ {
		s.At(timeDist(rng, 0), spawn)
	}
	s.Run()
	if violations != 0 {
		t.Fatalf("%d clock regressions", violations)
	}
}

// TestCancelDuringFire: callbacks cancelling other events — pending, fired,
// and already-cancelled — must be honored exactly, mid-drain.
func TestCancelDuringFire(t *testing.T) {
	s := New()
	var victims []Event
	firedVictims := 0
	for i := 0; i < 100; i++ {
		victims = append(victims, s.At(Time(50+i), func() { firedVictims++ })) // times 50..149
	}
	s.At(10, func() {
		for _, v := range victims[50:] { // times 100..149: cancelled while pending
			if !s.Cancel(v) {
				t.Error("cancel of a pending victim failed")
			}
		}
	})
	lateNoOps := 0
	s.At(105, func() { // by now every victim has fired (times ≤ 99) or was cancelled
		for _, v := range victims {
			if !s.Cancel(v) {
				lateNoOps++
			}
		}
	})
	s.Run()
	if firedVictims != 50 {
		t.Fatalf("fired %d victims, want 50", firedVictims)
	}
	if lateNoOps != 100 {
		t.Fatalf("%d late cancels were no-ops, want all 100", lateNoOps)
	}
}

// TestRescheduleStorm: heavy cancel+reschedule churn (the scheduler's
// preemption pattern) across bucket boundaries keeps order and count exact.
func TestRescheduleStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := New()
	ref := &refSim{}
	type slotPair struct {
		e Event
		r *refEvent
	}
	var pairs []slotPair
	for round := 0; round < 200; round++ {
		// schedule a burst
		for i := 0; i < 50; i++ {
			at := timeDist(rng, s.Now())
			if math.IsInf(at, 1) {
				at = s.Now() + 1e9
			}
			r := ref.schedule(at, int(s.seq))
			e := s.schedule(at, func() {}, nil)
			pairs = append(pairs, slotPair{e, r})
		}
		// cancel+reschedule half of the live set
		for i := 0; i < 25 && len(pairs) > 0; i++ {
			k := rng.Intn(len(pairs))
			p := pairs[k]
			if s.Cancel(p.e) {
				p.r.cancelled = true
				at := s.Now() + rng.Float64()*200
				r := ref.schedule(at, int(s.seq))
				e := s.schedule(at, func() {}, nil)
				pairs[k] = slotPair{e, r}
			}
		}
		// pop a few
		for i := 0; i < 40; i++ {
			slot, ok := s.q.pop(s)
			re, rok := ref.pop()
			if ok != rok {
				t.Fatalf("round %d: availability diverged", round)
			}
			if !ok {
				break
			}
			r := &s.recs[slot]
			if int(r.seq) != re.id || r.time != re.time {
				t.Fatalf("round %d: popped (%d,%v) want (%d,%v)", round, r.seq, r.time, re.id, re.time)
			}
			s.now = r.time
			r.state = stateFired
			s.freeSlot(slot)
		}
	}
}

// ---------------------------------------------------------------------------
// Alarm differential harness: one op stream drives the simulator (ladder
// events plus alarms) and refSim, where every alarm arm is a cancel of
// the alarm's previous reference event plus a fresh schedule. Both sides
// draw sequence numbers in lockstep, so an event's seq is its id.
// ---------------------------------------------------------------------------

// opBytes feeds the harness: each decision consumes one byte.
type opBytes struct {
	b []byte
	i int
}

func (o *opBytes) next() (byte, bool) {
	if o.i >= len(o.b) {
		return 0, false
	}
	o.i++
	return o.b[o.i-1], true
}

type alarmHarness struct {
	t   *testing.T
	in  *opBytes
	lad *Simulator
	ref *refSim

	alarms []Alarm
	refArm []*refEvent // each alarm's pending reference event, or nil
	armSeq []uint64    // the seq each alarm's last Arm drew

	events  []Event     // ladder events scheduled so far
	refEvs  []*refEvent // their reference twins
	refLive int         // reference events neither popped nor cancelled
	pops    int
	fired   []uint64 // ids in fire order
}

// harnessAlarm is one alarm's target.
type harnessAlarm struct {
	h *alarmHarness
	k int
}

func (a *harnessAlarm) Fire(now Time) {
	h := a.h
	if h.refArm[a.k] == nil {
		h.t.Fatalf("alarm %d fired at %v, reference has it disarmed", a.k, now)
	}
	h.refArm[a.k] = nil
	h.popRef(h.armSeq[a.k], now)
	h.react(a.k)
}

// when decodes one scheduling instant relative to the clock. The shapes
// are the ones that stress (time, seq) order: exact ties with the clock,
// quantized and integer-grid ties between any two events or alarms,
// sub-ulp clusters, far futures, and +Inf.
func (h *alarmHarness) when() Time {
	b, _ := h.in.next()
	now := h.lad.Now()
	v := Time(b >> 3)
	switch b & 7 {
	case 0:
		return now
	case 1:
		return now + 0.25*Time(int(v)%4)
	case 2:
		return now + v*1e-12
	case 3:
		if int(v)%8 == 0 {
			return math.Inf(1)
		}
		return now + 1000 + v*37
	case 4, 5:
		return now + v/16
	case 6:
		return now + 5 + v*7
	default:
		return math.Floor(now) + 1 + Time(int(v)%3)
	}
}

// pick decodes an index in [0, n).
func (h *alarmHarness) pick(n int) int {
	b, _ := h.in.next()
	return int(b) % n
}

func (h *alarmHarness) schedule() {
	at := h.when()
	id := h.lad.seq
	e := h.lad.At(at, func() { h.popRef(id, h.lad.Now()); h.react(-1) })
	h.events = append(h.events, e)
	h.refEvs = append(h.refEvs, h.ref.schedule(at, int(id)))
	h.refLive++
	h.sync()
}

func (h *alarmHarness) cancel() {
	if len(h.events) == 0 {
		return
	}
	k := h.pick(len(h.events))
	got := h.lad.Cancel(h.events[k])
	r := h.refEvs[k]
	want := !r.cancelled && containsRef(h.ref.queue, r)
	if got != want {
		h.t.Fatalf("Cancel returned %v, reference liveness %v", got, want)
	}
	if want {
		r.cancelled = true
		h.refLive--
	}
}

func (h *alarmHarness) arm(k int, at Time) {
	id := h.lad.seq
	h.alarms[k].Arm(at)
	h.armSeq[k] = id
	if r := h.refArm[k]; r != nil {
		r.cancelled = true
		h.refLive--
	}
	h.refArm[k] = h.ref.schedule(at, int(id))
	h.refLive++
	h.sync()
}

func (h *alarmHarness) disarm(k int) {
	got := h.alarms[k].Disarm()
	r := h.refArm[k]
	if got != (r != nil) {
		h.t.Fatalf("alarm %d: Disarm returned %v, reference armed %v", k, got, r != nil)
	}
	if r != nil {
		r.cancelled = true
		h.refArm[k] = nil
		h.refLive--
	}
}

func (h *alarmHarness) register() {
	k := len(h.alarms)
	h.alarms = append(h.alarms, h.lad.NewAlarm(&harnessAlarm{h: h, k: k}))
	h.refArm = append(h.refArm, nil)
	h.armSeq = append(h.armSeq, 0)
}

// storm is a preemption burst: disarms and re-arms of random alarms.
func (h *alarmHarness) storm() {
	n := 1 + h.pick(8)
	for i := 0; i < n; i++ {
		k := h.pick(len(h.alarms))
		if h.pick(2) == 0 {
			h.disarm(k)
		} else {
			h.arm(k, h.when())
		}
	}
}

// react is what a firing event or alarm (k ≥ 0) does next: nothing,
// re-arm itself (a ladder event schedules a successor), arm any alarm,
// or a disarm plus re-arm, as a preemption withdraws one completion
// and arms another. Once the input is spent it does nothing, so the
// final drain terminates.
func (h *alarmHarness) react(k int) {
	b, ok := h.in.next()
	if !ok {
		return
	}
	switch b % 4 {
	case 1:
		if k >= 0 {
			h.arm(k, h.when())
		} else {
			h.schedule()
		}
	case 2:
		h.arm(h.pick(len(h.alarms)), h.when())
	case 3:
		h.disarm(h.pick(len(h.alarms)))
		h.arm(h.pick(len(h.alarms)), h.when())
	}
}

// popRef pops the reference and checks it yields the event the
// simulator is firing.
func (h *alarmHarness) popRef(id uint64, now Time) {
	re, ok := h.ref.pop()
	if !ok {
		h.t.Fatalf("simulator fired %d at %v, reference is empty", id, now)
	}
	if uint64(re.id) != id || re.time != now {
		h.t.Fatalf("simulator fired %d at %v, reference %d at %v", id, now, re.id, re.time)
	}
	h.refLive--
	h.pops++
	h.fired = append(h.fired, id)
}

// sync checks the sequence counters still run in lockstep.
func (h *alarmHarness) sync() {
	if h.lad.seq != h.ref.seq {
		h.t.Fatalf("seq drifted: simulator %d, reference %d", h.lad.seq, h.ref.seq)
	}
}

// check compares the observable state after a top-level op.
func (h *alarmHarness) check() {
	h.t.Helper()
	if pending(h.lad) != h.refLive {
		h.t.Fatalf("Pending() = %d, reference %d", pending(h.lad), h.refLive)
	}
	if h.lad.Steps() != uint64(h.pops) {
		h.t.Fatalf("Steps() = %d, reference pops %d", h.lad.Steps(), h.pops)
	}
	if h.lad.Now() != h.ref.now {
		h.t.Fatalf("clock %v, reference %v", h.lad.Now(), h.ref.now)
	}
	for k, a := range h.alarms {
		at, armed := a.When()
		if r := h.refArm[k]; armed != (r != nil) || (armed && at != r.time) {
			h.t.Fatalf("alarm %d: When() = (%v, %v), reference %v", k, at, armed, r)
		}
	}
}

// refPeek returns the reference's earliest live instant.
func (h *alarmHarness) refPeek() (Time, bool) {
	for len(h.ref.queue) > 0 {
		if e := h.ref.queue[0]; !e.cancelled {
			return e.time, true
		}
		heap.Pop(&h.ref.queue)
	}
	return 0, false
}

// runUntil runs to a horizon decoded from the input, half the time
// exactly at an armed alarm's instant.
func (h *alarmHarness) runUntil() {
	horizon := h.when()
	if at, ok := h.alarms[h.pick(len(h.alarms))].When(); ok && h.pick(2) == 0 {
		horizon = at
	}
	h.lad.RunUntil(horizon)
	if t, ok := h.refPeek(); ok && t <= horizon {
		h.t.Fatalf("RunUntil(%v) left an event at %v", horizon, t)
	}
	if h.ref.now < horizon {
		h.ref.now = horizon
	}
}

// runAlarmDifferential decodes data into an op stream over a zero-value
// simulator and the reference, then drains both, and returns the fired
// ids.
func runAlarmDifferential(t *testing.T, data []byte) []uint64 {
	t.Helper()
	h := &alarmHarness{t: t, in: &opBytes{b: data}, lad: &Simulator{}, ref: &refSim{}}
	for n := 1 + h.pick(16); n > 0; n-- {
		h.register()
	}
	for {
		b, ok := h.in.next()
		if !ok {
			break
		}
		switch op := b % 16; {
		case op < 4:
			h.schedule()
		case op == 4:
			h.cancel()
		case op < 8:
			h.arm(h.pick(len(h.alarms)), h.when())
		case op == 8:
			h.disarm(h.pick(len(h.alarms)))
		case op == 9:
			h.storm()
		case op < 14:
			if !h.lad.Step() {
				if _, ok := h.refPeek(); ok {
					t.Fatal("simulator empty, reference is not")
				}
			}
		case op == 14:
			h.runUntil()
		default:
			if len(h.alarms) < 40 {
				h.register()
			}
		}
		h.check()
	}
	h.lad.Run()
	h.check()
	if h.refLive != 0 || pending(h.lad) != 0 {
		t.Fatalf("after Run: Pending() = %d, reference %d", pending(h.lad), h.refLive)
	}
	return h.fired
}

// TestDifferentialAlarms drives alarms and ladder events through random
// op streams — alarms re-arming from their own Fire, disarm/re-arm
// storms, exact-time ties between alarms and events and among alarms,
// arms at the clock and at +Inf, RunUntil at an alarm's instant, alarms
// registered mid-run — and requires the reference heap's fire sequence,
// Pending() and Steps() throughout.
func TestDifferentialAlarms(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	alarmFires := 0
	for seed := int64(1); seed <= 16; seed++ {
		data := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(data)
		fired := runAlarmDifferential(t, data)
		alarmFires += len(fired)
	}
	if alarmFires == 0 {
		t.Fatal("nothing fired: the op decoding misses its target")
	}
}

// FuzzAlarmDifferential decodes arbitrary bytes into ladder and alarm
// ops and checks the simulator against the reference heap.
func FuzzAlarmDifferential(f *testing.F) {
	f.Add([]byte{3, 5, 0, 0, 6, 1, 0, 11, 1, 0})
	f.Add([]byte{0, 7, 0, 7, 8, 7, 0, 7, 16, 12, 1, 12, 2, 12, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runAlarmDifferential(t, data)
	})
}
