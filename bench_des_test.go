package feasregion_test

import (
	"container/heap"
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
)

// Event-core benchmarks: the before/after for the calendar rebuild.
// `heapSim` below is a frozen copy of the pre-rewrite des.Simulator hot
// path (container/heap calendar, one *Event allocation per schedule,
// closure dispatch), kept so every future run re-measures the "before"
// on current hardware instead of trusting a stale number. The
// BenchmarkDes* pairs measure, heap vs ladder:
//
//   - SelfClocking: n independent recurring timers (the arrival-source
//     shape that dominates replay) firing and rescheduling — pure
//     schedule+fire throughput at a steady calendar population;
//   - ScheduleDrain: bulk-schedule n random events, then drain — the
//     insert- then pop-heavy phases separately exercised;
//   - CancelHeavy: schedule, cancel half, drain — the watchdog pattern
//     (most timers are disarmed before they fire).
//
// The ladder rows must report 0 allocs/op on the Timer dispatch path;
// the acceptance floor for the rebuild is ≥ 3× the frozen heap's
// self-clocking event throughput. `make bench-des` emits these as
// BENCH_des.json.

// --- frozen pre-rewrite implementation (trimmed to the measured path) ---

type heapEvent struct {
	time      float64
	seq       uint64
	index     int
	fn        func()
	cancelled bool
}

type heapEventQueue []*heapEvent

func (q heapEventQueue) Len() int { return len(q) }

func (q heapEventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q heapEventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *heapEventQueue) Push(x any) {
	e := x.(*heapEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *heapEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type heapSim struct {
	queue heapEventQueue
	now   float64
	seq   uint64
}

func (s *heapSim) At(t float64, fn func()) *heapEvent {
	e := &heapEvent{time: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

func (s *heapSim) Cancel(e *heapEvent) {
	if e == nil || e.cancelled || e.index < 0 {
		return
	}
	e.cancelled = true
	heap.Remove(&s.queue, e.index)
	e.index = -1
}

func (s *heapSim) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*heapEvent)
		if e.cancelled {
			continue
		}
		s.now = e.time
		e.fn()
		return true
	}
	return false
}

// --- workload shapes ---

// benchStreams is the steady calendar population for the self-clocking
// shape: the event core's working set in a large replay.
const benchStreams = 1024

// heapTicker is one self-rescheduling stream on the frozen heap.
type heapTicker struct {
	sim  *heapSim
	rng  *dist.RNG
	fire func()
}

func benchHeapSelfClocking(b *testing.B, streams int) {
	s := &heapSim{}
	for i := 0; i < streams; i++ {
		t := &heapTicker{sim: s, rng: dist.NewRNG(int64(i + 1))}
		t.fire = func() {
			s.At(s.now+t.rng.ExpFloat64(), t.fire)
		}
		s.At(t.rng.ExpFloat64(), t.fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// ladderTicker is the same stream on the current core's Timer path.
type ladderTicker struct {
	sim *des.Simulator
	rng *dist.RNG
}

func (t *ladderTicker) Fire(now des.Time) {
	t.sim.AtTimer(now+t.rng.ExpFloat64(), t)
}

func benchLadderSelfClocking(b *testing.B, streams int) {
	s := des.New()
	for i := 0; i < streams; i++ {
		t := &ladderTicker{sim: s, rng: dist.NewRNG(int64(i + 1))}
		s.AtTimer(t.rng.ExpFloat64(), t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkDesHeapSelfClocking(b *testing.B)   { benchHeapSelfClocking(b, benchStreams) }
func BenchmarkDesLadderSelfClocking(b *testing.B) { benchLadderSelfClocking(b, benchStreams) }

// nop is the shared no-op payload for drain shapes.
type nop struct{}

func (nop) Fire(des.Time) {}

var sharedNop nop

func BenchmarkDesHeapScheduleDrain(b *testing.B) {
	rng := dist.NewRNG(7)
	cb := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &heapSim{}
		for j := 0; j < benchStreams; j++ {
			s.At(rng.Float64()*1000, cb)
		}
		for s.Step() {
		}
	}
}

func BenchmarkDesLadderScheduleDrain(b *testing.B) {
	rng := dist.NewRNG(7)
	s := des.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := s.Now()
		for j := 0; j < benchStreams; j++ {
			s.AtTimer(base+rng.Float64()*1000, sharedNop)
		}
		for s.Step() {
		}
	}
}

func BenchmarkDesHeapCancelHeavy(b *testing.B) {
	rng := dist.NewRNG(11)
	cb := func() {}
	events := make([]*heapEvent, benchStreams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &heapSim{}
		for j := range events {
			events[j] = s.At(rng.Float64()*1000, cb)
		}
		for j := 0; j < len(events); j += 2 {
			s.Cancel(events[j])
		}
		for s.Step() {
		}
	}
}

func BenchmarkDesLadderCancelHeavy(b *testing.B) {
	rng := dist.NewRNG(11)
	s := des.New()
	events := make([]des.Event, benchStreams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := s.Now()
		for j := range events {
			events[j] = s.AtTimer(base+rng.Float64()*1000, sharedNop)
		}
		for j := 0; j < len(events); j += 2 {
			s.Cancel(events[j])
		}
		for s.Step() {
		}
	}
}

// nearTicker is one stream of BenchmarkDesLadderNearFuture: three times
// in four it reschedules itself a little past the clock, as a stage's
// completion does, else farther out, as the next arrival does. A fifth
// of its near reschedules first withdraw the event armed last and arm
// another, as a preemption cancels and re-arms a completion.
type nearTicker struct {
	sim   *des.Simulator
	rng   *dist.RNG
	armed des.Event
}

func (t *nearTicker) Fire(now des.Time) {
	if t.rng.Intn(4) == 0 {
		t.sim.AtTimer(now+t.rng.ExpFloat64(), t)
		return
	}
	if t.rng.Intn(5) == 0 {
		t.sim.Cancel(t.armed)
		t.armed = t.sim.AtTimer(now+t.rng.Float64()*1e-3, sharedNop)
	}
	t.sim.AtTimer(now+t.rng.Float64()*1e-3, t)
}

// BenchmarkDesLadderNearFuture is the hold model of a preemptive
// pipeline: most reschedules land a sub-bucket distance past the clock,
// so they are spliced into the ladder's sorted bottom, not appended to a
// rung. It must report 0 allocs/op.
func BenchmarkDesLadderNearFuture(b *testing.B) {
	s := des.New()
	for i := 0; i < benchStreams; i++ {
		t := &nearTicker{sim: s, rng: dist.NewRNG(int64(i + 1))}
		s.AtTimer(t.rng.ExpFloat64(), t)
	}
	for i := 0; i < 16*benchStreams; i++ { // warm up to the working size
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestDesLadderSelfClockingZeroAlloc pins the tentpole's allocation
// claim outside the benchmark harness: a warmed simulator driving
// recurring Timer streams must not allocate per event.
func TestDesLadderSelfClockingZeroAlloc(t *testing.T) {
	s := des.New()
	for i := 0; i < 64; i++ {
		tk := &ladderTicker{sim: s, rng: dist.NewRNG(int64(i + 1))}
		s.AtTimer(tk.rng.ExpFloat64(), tk)
	}
	for i := 0; i < 100_000; i++ { // warm the arena, rungs, and bottom
		s.Step()
	}
	per := testing.AllocsPerRun(2000, func() { s.Step() })
	if per != 0 {
		t.Fatalf("steady-state Step allocates %v per event, want 0", per)
	}
}

// TestDesBenchShapesAgree cross-checks that both cores drain the drain
// shapes to the same final clock — guarding the benchmark pair against
// measuring different work.
func TestDesBenchShapesAgree(t *testing.T) {
	rng1 := dist.NewRNG(3)
	rng2 := dist.NewRNG(3)
	h := &heapSim{}
	l := des.New()
	for j := 0; j < 4096; j++ {
		h.At(rng1.Float64()*500, func() {})
		l.AtTimer(rng2.Float64()*500, sharedNop)
	}
	for h.Step() {
	}
	for l.Step() {
	}
	if math.Abs(h.now-l.Now()) != 0 {
		t.Fatalf("final clocks differ: heap %v, ladder %v", h.now, l.Now())
	}
}
