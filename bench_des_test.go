package feasregion_test

import (
	"fmt"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
)

// Event-core benchmarks. The BenchmarkDesLadder* rows measure the
// ladder calendar; the before/after of a change to the event core is
// `bash bench/pairs.sh <commit>` plus these rows run on both commits.
//
//   - LadderSelfClocking: n independent recurring timers firing and
//     rescheduling on the calendar — pure schedule+fire throughput at a
//     steady calendar population;
//   - LadderScheduleDrain: bulk-schedule n random events, then drain —
//     the insert- then pop-heavy phases separately exercised;
//   - LadderCancelHeavy: schedule, cancel half, drain (most timers are
//     disarmed before they fire);
//   - LadderNearFuture: the hold model of a preemptive pipeline;
//   - AlarmSelfClocking and LadderFewStreams: k = 4 and 16 recurring
//     streams (a pipeline's stage completions and arrival source; the
//     simulated fleet has 13), each re-arming an alarm versus
//     rescheduling through the calendar.
//
// Every row must report 0 allocs/op. `make bench-des` emits them as
// BENCH_des.json.

// benchStreams is the steady calendar population for the self-clocking
// shape: the event core's working set in a large replay.
const benchStreams = 1024

// ladderTicker is one self-rescheduling stream on the calendar.
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

func BenchmarkDesLadderSelfClocking(b *testing.B) { benchLadderSelfClocking(b, benchStreams) }

// alarmTicker is the same stream on an alarm: it re-arms itself.
type alarmTicker struct {
	a   des.Alarm
	rng *dist.RNG
}

func (t *alarmTicker) Fire(now des.Time) {
	t.a.Arm(now + t.rng.ExpFloat64())
}

func newAlarmTickers(s *des.Simulator, streams int) {
	for i := 0; i < streams; i++ {
		t := &alarmTicker{rng: dist.NewRNG(int64(i + 1))}
		t.a = s.NewAlarm(t)
		t.a.Arm(t.rng.ExpFloat64())
	}
}

// fewStreams are the alarm counts of the simulated stacks: a pipeline's
// three stages plus its replayer, and a fleet-sized set.
var fewStreams = []int{4, 16}

func BenchmarkDesAlarmSelfClocking(b *testing.B) {
	for _, k := range fewStreams {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := des.New()
			newAlarmTickers(s, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkDesLadderFewStreams(b *testing.B) {
	for _, k := range fewStreams {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchLadderSelfClocking(b, k) })
	}
}

// nop is the shared no-op payload for drain shapes.
type nop struct{}

func (nop) Fire(des.Time) {}

var sharedNop nop

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

// TestDesAlarmShapeAgrees cross-checks that the alarm and calendar
// versions of the few-stream shape do the same work: the same streams
// fire at the same instants, so the clocks agree after every step.
func TestDesAlarmShapeAgrees(t *testing.T) {
	for _, k := range fewStreams {
		l, a := des.New(), des.New()
		for i := 0; i < k; i++ {
			tk := &ladderTicker{sim: l, rng: dist.NewRNG(int64(i + 1))}
			l.AtTimer(tk.rng.ExpFloat64(), tk)
		}
		newAlarmTickers(a, k)
		for i := 0; i < 10_000; i++ {
			if !l.Step() || !a.Step() {
				t.Fatalf("k=%d, step %d: a stream ran dry", k, i)
			}
			if l.Now() != a.Now() {
				t.Fatalf("k=%d, step %d: calendar clock %v, alarm clock %v", k, i, l.Now(), a.Now())
			}
		}
	}
}

// TestDesAlarmSelfClockingZeroAlloc: self-re-arming alarms allocate
// nothing per fire.
func TestDesAlarmSelfClockingZeroAlloc(t *testing.T) {
	s := des.New()
	newAlarmTickers(s, 16)
	if per := testing.AllocsPerRun(2000, func() { s.Step() }); per != 0 {
		t.Fatalf("alarm Step allocates %v per fire, want 0", per)
	}
}
