package sched

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// checkInvariants asserts the structural invariants of a stage:
//
//  1. the running job is at least as urgent as every ready job,
//  2. every lock has at most one holder, and holders are live jobs
//     (running or preempted-in-ready, never blocked or completed),
//  3. every blocked job waits on a lock with a holder other than itself,
//  4. heap indices are consistent, and every ready slot caches its
//     job's current effective priority,
//  5. the idle flag matches the absence of work,
//  6. the stage's alarms follow the running job (checkAlarms).
func checkInvariants(t *testing.T, s *Stage) {
	t.Helper()
	checkAlarms(t, s)
	if s.running != nil && len(s.ready) > 0 {
		if top := s.ready[0].j; less(top, s.running) {
			t.Fatalf("ready job %d (eff %v) outranks running job %d (eff %v)",
				top.TaskID, top.Effective(), s.running.TaskID, s.running.Effective())
		}
	}
	for i, e := range s.ready {
		j := e.j
		if math.Float64bits(e.eff) != math.Float64bits(j.Effective()) {
			t.Fatalf("ready slot %d caches priority %v, job %d has %v", i, e.eff, j.TaskID, j.Effective())
		}
		if j.heapIdx != i {
			t.Fatalf("heap index of job %d is %d, stored at %d", j.TaskID, j.heapIdx, i)
		}
		if j.blockedOn != nil {
			t.Fatalf("blocked job %d present in ready heap", j.TaskID)
		}
	}
	for _, l := range s.locks {
		h := l.holder
		if h == nil {
			continue
		}
		if h.blockedOn != nil {
			t.Fatalf("lock %d held by blocked job %d", l.id, h.TaskID)
		}
		live := s.running == h || h.heapIdx >= 0
		if !live {
			t.Fatalf("lock %d held by dead job %d", l.id, h.TaskID)
		}
	}
	for _, b := range s.blocked {
		if b.blockedOn == nil || b.blockedOn.holder == nil {
			t.Fatalf("blocked job %d has no blocking holder", b.TaskID)
		}
		if b.blockedOn.holder == b {
			t.Fatalf("job %d blocked on itself", b.TaskID)
		}
		if b.heapIdx >= 0 {
			t.Fatalf("blocked job %d also in ready heap", b.TaskID)
		}
	}
	hasWork := s.running != nil || len(s.ready) > 0 || len(s.blocked) > 0
	if s.idle == hasWork {
		t.Fatalf("idle flag %v inconsistent with work presence %v", s.idle, hasWork)
	}
}

// runChecked runs the simulation to completion, checking the stages'
// invariants after every event.
func runChecked(t *testing.T, sim *des.Simulator, stages ...*Stage) {
	t.Helper()
	for sim.Step() {
		for _, s := range stages {
			checkInvariants(t, s)
		}
	}
}

// randomSubtask builds a random subtask, possibly with a critical
// section on one of two locks.
func randomSubtask(g *dist.RNG) task.Subtask {
	demand := g.ExpFloat64()*2 + 0.01
	if g.Float64() < 0.4 {
		lock := 1 + g.Intn(2)
		cs := demand * (0.2 + 0.6*g.Float64())
		pre := (demand - cs) * g.Float64()
		post := demand - cs - pre
		return task.Subtask{Demand: demand, Segments: []task.Segment{
			{Duration: pre, Lock: task.NoLock},
			{Duration: cs, Lock: lock},
			{Duration: post, Lock: task.NoLock},
		}}
	}
	return task.NewSubtask(demand)
}

// TestSchedulerInvariantsUnderRandomLoad drives a stage with randomized
// submissions (random priorities, demands, critical sections, and
// cancellations) and checks the structural invariants after every event.
func TestSchedulerInvariantsUnderRandomLoad(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			g := dist.NewRNG(seed)
			sim := des.New()
			st := New(sim, "s0")
			st.RegisterLock(1, 0)
			st.RegisterLock(2, 0)

			const n = 400
			totalDemand := 0.0
			completedDemand := 0.0
			var jobs []*Job
			at := 0.0
			for i := 0; i < n; i++ {
				at += g.ExpFloat64() * 1.2
				id := task.ID(i)
				sub := randomSubtask(g)
				prio := math.Floor(g.Float64() * 10)
				demand := sub.Demand
				totalDemand += demand
				releaseAt := at
				sim.At(releaseAt, func() {
					j := st.Submit(id, prio, sub, func(des.Time) { completedDemand += demand })
					jobs = append(jobs, j)
				})
				// Occasionally cancel a random previously submitted job.
				if g.Float64() < 0.15 {
					cancelAt := releaseAt + g.ExpFloat64()
					pick := g.Float64()
					sim.At(cancelAt, func() {
						if len(jobs) == 0 {
							return
						}
						victim := jobs[int(pick*float64(len(jobs)))]
						st.Cancel(victim)
					})
				}
			}

			for sim.Step() {
				checkInvariants(t, st)
			}

			// Terminal state: no work left anywhere.
			if !st.idle || st.ReadyLen() != 0 || len(st.blocked) != 0 {
				t.Fatalf("stage not drained: idle=%v ready=%d blocked=%d",
					st.idle, st.ReadyLen(), len(st.blocked))
			}
			stats := st.Stats()
			if stats.Completed+stats.Cancelled != uint64(n) {
				t.Fatalf("completed %d + cancelled %d != submitted %d",
					stats.Completed, stats.Cancelled, n)
			}
			// Busy time can't exceed total demand and must cover at least
			// the completed demand minus cancelled remainders.
			busy := st.BusyTime(sim.Now())
			if busy > totalDemand+1e-6 {
				t.Fatalf("busy %v exceeds total demand %v", busy, totalDemand)
			}
			if busy < completedDemand-1e-6 {
				t.Fatalf("busy %v below completed demand %v", busy, completedDemand)
			}
		})
	}
}

// TestSchedulerDeterministicUnderRandomLoad replays the random scenario
// and requires identical completion accounting.
func TestSchedulerDeterministicUnderRandomLoad(t *testing.T) {
	run := func() (uint64, float64) {
		g := dist.NewRNG(99)
		sim := des.New()
		st := New(sim, "s0")
		st.RegisterLock(1, 0)
		st.RegisterLock(2, 0)
		at := 0.0
		for i := 0; i < 300; i++ {
			at += g.ExpFloat64()
			id := task.ID(i)
			sub := randomSubtask(g)
			prio := g.Float64() * 10
			releaseAt := at
			sim.At(releaseAt, func() { st.Submit(id, prio, sub, nil) })
		}
		sim.Run()
		return st.Stats().Completed, st.BusyTime(sim.Now())
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("replay diverged: (%d, %v) vs (%d, %v)", c1, b1, c2, b2)
	}
}

// checkAlarms asserts the stage's alarm invariants: the completion alarm
// is armed exactly while a job runs, at the end of its current segment;
// the watchdog alarm is pending only for a running job; and without an
// overrun handler no watchdog alarm exists.
func checkAlarms(t *testing.T, s *Stage) {
	t.Helper()
	at, armed := s.done.When()
	if armed != (s.running != nil) {
		t.Fatalf("completion alarm armed %v with running job %v", armed, s.running)
	}
	if armed && at != s.running.segStart+s.running.segRemaining {
		t.Fatalf("completion alarm at %v, running segment ends at %v",
			at, s.running.segStart+s.running.segRemaining)
	}
	if s.watch.Armed() && s.running == nil {
		t.Fatal("watchdog alarm armed with no running job")
	}
	if s.onOverrun == nil && s.watch != (des.Alarm{}) {
		t.Fatal("watchdog alarm registered without an overrun handler")
	}
}

// TestStageAlarmFollowsRunningJob walks a stage through every path that
// starts, stops or reshapes the running job — direct dispatch, the heap
// path, preemption, Cancel and TrimTo of the running job, Pause/Resume
// and DropProgress, completion — and checks the alarm invariants after
// each, with and without an overrun handler.
func TestStageAlarmFollowsRunningJob(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		sim := des.New()
		s := New(sim, "s")
		overruns := 0
		if guarded {
			s.OnOverrun(func(*Job, float64, float64) { overruns++ })
		}
		var jobs [5]Job
		submit := func(k int, prio, demand float64) {
			s.SubmitJob(&jobs[k], task.ID(k), prio, task.NewSubtask(demand), demand/2, nil)
			checkAlarms(t, s)
		}
		step := func(what string, fn func()) {
			fn()
			checkAlarms(t, s)
			if t.Failed() {
				t.Fatalf("guarded=%v: after %s", guarded, what)
			}
		}
		submit(0, 5, 4) // idle stage: direct dispatch
		step("run", func() { sim.RunUntil(1) })
		submit(1, 1, 3) // more urgent: preempts job 0, direct dispatch
		if s.running != &jobs[1] {
			t.Fatal("job 1 did not preempt")
		}
		submit(2, 9, 2) // less urgent: heap path
		submit(3, 7, 2)
		step("Cancel of the running job", func() { s.Cancel(&jobs[1]) })
		if s.running != &jobs[0] {
			t.Fatal("job 0 did not resume after the cancel")
		}
		step("TrimTo of the running job", func() { s.TrimTo(&jobs[0], 3, 3) })
		step("Pause", s.Pause)
		step("DropProgress", func() { s.DropProgress() })
		step("run while paused", func() { sim.RunUntil(2) })
		step("Resume", s.Resume)
		step("TrimTo below executed", func() { s.TrimTo(&jobs[0], 0, 0) })
		step("run to completion", sim.Run)
		submit(4, 1, 5)
		step("Cancel of the lone running job", func() { s.Cancel(&jobs[4]) })
		if !s.idle {
			t.Fatal("stage did not drain")
		}
		if guarded && overruns == 0 {
			t.Fatal("no budget crossed: the watchdog path went unexercised")
		}
	}
}
