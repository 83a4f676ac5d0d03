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
			lad.live--
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
	if lad.Pending() != 0 {
		t.Fatalf("seed %d: %d events stranded in the ladder", seed, lad.Pending())
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
		lad.live--
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
			s.live--
			s.freeSlot(slot)
		}
	}
}
