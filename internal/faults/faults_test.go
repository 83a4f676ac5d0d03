package faults

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/sched"
	"feasregion/internal/task"
)

// TestScheduleDeterminism checks the same (config, seed) yields the same
// windows and liar set, and a different seed yields a different one.
func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{Stages: 3, Horizon: 1000, LiarFraction: 0.3, LiarFactor: 2,
		Stalls: 4, StallLen: 5, Slowdowns: 4, SlowdownLen: 10, SlowdownFactor: 3}
	a, b := New(cfg, 42), New(cfg, 42)
	as, aw := a.stalls, a.slows
	bs, bw := b.stalls, b.slows
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("stall window %d differs across identical seeds: %+v vs %+v", i, as[i], bs[i])
		}
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("slow window %d differs across identical seeds: %+v vs %+v", i, aw[i], bw[i])
		}
	}
	liarsMatch, liarsDiffer := true, false
	other := New(cfg, 43)
	for id := task.ID(0); id < 1000; id++ {
		if a.Liar(id) != b.Liar(id) {
			liarsMatch = false
		}
		if a.Liar(id) != other.Liar(id) {
			liarsDiffer = true
		}
	}
	if !liarsMatch {
		t.Error("liar set differs across identical seeds")
	}
	if !liarsDiffer {
		t.Error("liar set identical across different seeds")
	}
}

// TestLiarFraction checks the hash-based liar selection hits the
// configured fraction to within sampling error.
func TestLiarFraction(t *testing.T) {
	in := New(Config{Stages: 1, LiarFraction: 0.25, LiarFactor: 2}, 7)
	n, liars := 200_000, 0
	for id := 0; id < n; id++ {
		if in.Liar(task.ID(id)) {
			liars++
		}
	}
	got := float64(liars) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("liar fraction = %v, want ≈0.25", got)
	}
}

// TestAttachInflatesLiars runs two tasks through a one-stage pipeline
// and checks only the liar executes longer than declared.
func TestAttachInflatesLiars(t *testing.T) {
	cfg := Config{Stages: 1, LiarFraction: 0.5, LiarFactor: 3}
	in := New(cfg, 1)
	// Find one liar and one truthful ID.
	liar, honest := task.ID(-1), task.ID(-1)
	for id := task.ID(0); liar < 0 || honest < 0; id++ {
		if in.Liar(id) {
			if liar < 0 {
				liar = id
			}
		} else if honest < 0 {
			honest = id
		}
	}
	sim := des.New()
	st := sched.New(sim, "s")
	in.Attach(sim, []*sched.Stage{st})
	durations := map[task.ID]des.Time{}
	submit := func(id task.ID, at float64) {
		sim.At(at, func() {
			start := sim.Now()
			st.Submit(id, 1, task.NewSubtask(2), func(done des.Time) { durations[id] = done - start })
		})
	}
	submit(honest, 0)
	submit(liar, 10)
	sim.Run()
	if durations[honest] != 2 {
		t.Errorf("truthful task ran %v, want 2", durations[honest])
	}
	if durations[liar] != 6 {
		t.Errorf("liar ran %v, want 6 (3x inflation)", durations[liar])
	}
	if in.Stats().InflatedJobs != 1 {
		t.Errorf("inflated jobs = %d, want 1", in.Stats().InflatedJobs)
	}
}

// TestStallWindowBlocksStage schedules one explicit stall and checks the
// stage stops dispatching for exactly the window.
func TestStallWindowBlocksStage(t *testing.T) {
	cfg := Config{Stages: 1, Horizon: 100, Stalls: 1, StallLen: 5}
	in := New(cfg, 3)
	stalls := in.stalls
	w := stalls[0]
	sim := des.New()
	st := sched.New(sim, "s")
	in.Attach(sim, []*sched.Stage{st})
	// A long job spanning the stall: completion slips by the stall length.
	var done des.Time
	sim.At(w.Start-1, func() {
		st.Submit(1, 1, task.NewSubtask(3), func(now des.Time) { done = now })
	})
	sim.Run()
	want := w.Start - 1 + 3 + w.Duration
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("completion at %v, want %v (stall-delayed)", done, want)
	}
	s := in.Stats()
	if s.StallsFired != 1 || s.Restarts != 1 {
		t.Errorf("stall stats = %+v", s)
	}
}

// TestIdleLossDeterminism checks idle drops reproduce for a fixed seed.
func TestIdleLossDeterminism(t *testing.T) {
	run := func() []bool {
		in := New(Config{Stages: 1, IdleLossProb: 0.5}, 9)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.DropIdle(0, 0))
		}
		return out
	}
	a, b := run(), run()
	dropped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("idle-loss draw %d differs across identical seeds", i)
		}
		if a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Errorf("idle-loss draws degenerate: %d/%d dropped", dropped, len(a))
	}
}
