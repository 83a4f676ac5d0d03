package sched

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// TestOverrunWatchFiresAtCrossing checks the watchdog fires at the exact
// instant consumed time crosses the budget, with the correct consumed
// and observed-total values.
func TestOverrunWatchFiresAtCrossing(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	var fired []struct{ consumed, total float64 }
	s.OnOverrun(func(j *Job, consumed, total float64) {
		fired = append(fired, struct{ consumed, total float64 }{consumed, total})
	})
	// Declared 2, executes 5 (the task lied).
	s.SetExecModel(func(task.ID, float64) float64 { return 5 })
	s.SubmitBudgeted(1, 1, task.NewSubtask(2), 2, nil)
	sim.Run()
	if len(fired) != 1 {
		t.Fatalf("watchdog fired %d times, want 1", len(fired))
	}
	if fired[0].consumed != 2 {
		t.Errorf("consumed at fire = %v, want 2", fired[0].consumed)
	}
	if fired[0].total != 5 {
		t.Errorf("observed total = %v, want 5", fired[0].total)
	}
	if sim.Now() != 5 {
		t.Errorf("job should still run to completion: now = %v, want 5", sim.Now())
	}
}

// TestOverrunWatchSilentOnExactBudget checks a job that consumes exactly
// its budget completes without tripping the guard (truthful tasks with
// exact estimates are never punished).
func TestOverrunWatchSilentOnExactBudget(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	trips := 0
	s.OnOverrun(func(*Job, float64, float64) { trips++ })
	s.SubmitBudgeted(1, 1, task.NewSubtask(3), 3, nil)
	sim.Run()
	if trips != 0 {
		t.Fatalf("exact-budget job tripped the watchdog %d times", trips)
	}
}

// TestOverrunWatchSurvivesPreemption checks consumed time accumulates
// across preemptions and the watch re-arms so the crossing is still
// detected at the right cumulative instant.
func TestOverrunWatchSurvivesPreemption(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	var consumedAtFire float64
	var victim *Job
	s.OnOverrun(func(j *Job, consumed, _ float64) {
		victim = j
		consumedAtFire = consumed
	})
	// Low-priority job with budget 4 but 10 units of actual work.
	s.SubmitBudgeted(1, 10, task.NewSubtask(10), 4, nil)
	// Preempt it at t=1 with a 2-unit urgent job.
	sim.At(1, func() { s.Submit(2, 1, task.NewSubtask(2), nil) })
	sim.Run()
	if victim == nil || victim.TaskID != 1 {
		t.Fatalf("watchdog did not identify task 1 (victim=%v)", victim)
	}
	if consumedAtFire != 4 {
		t.Errorf("consumed at fire = %v, want 4", consumedAtFire)
	}
}

// TestOverrunHandlerCanCancel checks an evicting handler can cancel the
// running job from inside the watchdog callback.
func TestOverrunHandlerCanCancel(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	s.OnOverrun(func(j *Job, _, _ float64) {
		if !s.Cancel(j) {
			t.Error("Cancel from overrun handler failed")
		}
	})
	completed := false
	s.SubmitBudgeted(1, 1, task.NewSubtask(10), 2, func(des.Time) { completed = true })
	s.Submit(2, 2, task.NewSubtask(1), nil)
	sim.Run()
	if completed {
		t.Error("evicted job still completed")
	}
	if sim.Now() != 3 {
		t.Errorf("timeline = %v, want 3 (2 consumed by evictee + 1 successor)", sim.Now())
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 cancelled / 1 completed", st)
	}
}

// TestPauseResumeStall checks a paused stage dispatches nothing, queues
// arrivals, and resumes where it left off.
func TestPauseResumeStall(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	var doneAt des.Time
	s.Submit(1, 1, task.NewSubtask(4), func(now des.Time) { doneAt = now })
	sim.At(1, func() { s.Pause() })
	sim.At(3, func() {
		if s.ReadyLen() != 1 || s.running != nil {
			t.Errorf("paused stage should hold the job in ready: ready=%d", s.ReadyLen())
		}
		s.Resume()
	})
	sim.Run()
	// 1 unit ran before the stall, 3 remain after resume at t=3.
	if doneAt != 6 {
		t.Errorf("completion at %v, want 6", doneAt)
	}
	if !s.idle {
		t.Error("stage should be idle after draining")
	}
}

// TestDropProgressReexecutes checks crash-and-restart re-executes the
// interrupted segment from the start while preserving consumed-time
// accounting.
func TestDropProgressReexecutes(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	var j *Job
	j = s.Submit(1, 1, task.NewSubtask(4), nil)
	sim.At(3, func() {
		s.Pause()
		if n := s.DropProgress(); n != 1 {
			t.Errorf("DropProgress affected %d jobs, want 1", n)
		}
		s.Resume()
	})
	sim.Run()
	// 3 units before the crash + full 4-unit re-execution.
	if sim.Now() != 7 {
		t.Errorf("completion at %v, want 7", sim.Now())
	}
	if j.Consumed() != 7 {
		t.Errorf("consumed = %v, want 7 (crash work is real work)", j.Consumed())
	}
}

// TestExecModelDoesNotMutateTask checks the exec model transforms a
// copy: the task's own segment slice must stay nominal.
func TestExecModelDoesNotMutateTask(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	s.SetExecModel(func(_ task.ID, d float64) float64 { return 2 * d })
	sub := task.Subtask{Demand: 3, Segments: []task.Segment{{Duration: 3, Lock: task.NoLock}}}
	s.Submit(1, 1, sub, nil)
	sim.Run()
	if sub.Segments[0].Duration != 3 {
		t.Errorf("task segment mutated to %v", sub.Segments[0].Duration)
	}
	if sim.Now() != 6 {
		t.Errorf("inflated execution took %v, want 6", sim.Now())
	}
}

// TestBudgetDefaultsUnlimited checks plain Submit never trips the guard.
func TestBudgetDefaultsUnlimited(t *testing.T) {
	sim := des.New()
	s := New(sim, "s")
	s.OnOverrun(func(*Job, float64, float64) { t.Error("unbudgeted job tripped the watchdog") })
	j := s.Submit(1, 1, task.NewSubtask(5), nil)
	if !math.IsInf(j.Budget(), 1) {
		t.Errorf("default budget = %v, want +Inf", j.Budget())
	}
	sim.Run()
}
