package sched

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

func TestCancelRunningJob(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	j := st.Submit(1, 5, task.NewSubtask(10), func(now des.Time) { done[1] = now })
	submitAt(sim, st, 0, 2, 9, task.NewSubtask(2), done)
	sim.At(3, func() {
		if !st.Cancel(j) {
			t.Error("Cancel returned false for running job")
		}
	})
	sim.Run()
	if _, ok := done[1]; ok {
		t.Fatal("cancelled job's completion callback fired")
	}
	// Job 2 runs [3, 5) after the cancellation frees the stage.
	if done[2] != 5 {
		t.Fatalf("successor finished at %v, want 5", done[2])
	}
	if got := st.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	if got := st.BusyTime(sim.Now()); got != 5 {
		t.Fatalf("busy time %v, want 5 (3 cancelled-partial + 2)", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 1, task.NewSubtask(4), done)
	var queued *Job
	sim.At(0.5, func() {
		queued = st.Submit(2, 5, task.NewSubtask(3), func(now des.Time) { done[2] = now })
	})
	sim.At(1, func() {
		if !st.Cancel(queued) {
			t.Error("Cancel returned false for queued job")
		}
	})
	sim.Run()
	if _, ok := done[2]; ok {
		t.Fatal("cancelled queued job ran")
	}
	if done[1] != 4 {
		t.Fatalf("remaining job finished at %v, want 4", done[1])
	}
}

func TestCancelLastJobTriggersIdle(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	idles := 0
	st.OnIdle(func(des.Time) { idles++ })
	j := st.Submit(1, 1, task.NewSubtask(10), nil)
	sim.At(2, func() { st.Cancel(j) })
	sim.Run()
	if idles != 1 {
		t.Fatalf("idle hook fired %d times, want 1 (after cancellation)", idles)
	}
	if !st.Idle() {
		t.Fatal("stage should be idle")
	}
}

func TestCancelCompletedJobReturnsFalse(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	j := st.Submit(1, 1, task.NewSubtask(1), nil)
	sim.Run()
	if st.Cancel(j) {
		t.Fatal("Cancel of completed job must return false")
	}
}

func TestCancelRunningJobInsideCriticalSectionReleasesLock(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	done := map[task.ID]des.Time{}
	holder := st.Submit(1, 9, cs(0, 10, 0, 1), nil)
	// A waiter blocks on the lock at t=1.
	submitAt(sim, st, 1, 2, 0, cs(0, 2, 0, 1), done)
	// Cancel the holder at t=3: the lock must be released and the waiter
	// unblocked immediately.
	sim.At(3, func() { st.Cancel(holder) })
	sim.Run()
	if done[2] != 5 {
		t.Fatalf("waiter finished at %v, want 5 (unblocked at cancellation)", done[2])
	}
}

func TestCancelPreemptedJobInCriticalSectionReleasesLock(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	done := map[task.ID]des.Time{}
	holder := st.Submit(1, 9, cs(0, 10, 0, 1), nil)
	// Preempt the holder with an urgent lock-free job at t=1.
	submitAt(sim, st, 1, 2, 0, task.NewSubtask(5), done)
	// While the holder sits preempted in the ready queue (still holding
	// the lock), cancel it; a later same-lock job must not wait.
	sim.At(2, func() { st.Cancel(holder) })
	submitAt(sim, st, 3, 3, 5, cs(0, 1, 0, 1), done)
	sim.Run()
	if done[2] != 6 {
		t.Fatalf("urgent job finished at %v, want 6", done[2])
	}
	if done[3] != 7 {
		t.Fatalf("lock user finished at %v, want 7 (lock was freed by cancel)", done[3])
	}
}

func TestCancelBlockedJobRemovesInheritance(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	done := map[task.ID]des.Time{}
	// Low-priority holder enters a long critical section.
	submitAt(sim, st, 0, 1, 10, cs(0, 6, 0, 1), done)
	// Urgent job blocks on the lock at t=1 -> holder inherits priority 0.
	var blocked *Job
	sim.At(1, func() {
		blocked = st.Submit(2, 0, cs(0, 1, 0, 1), func(now des.Time) { done[2] = now })
	})
	// Medium job arrives at t=2; with inheritance active it must wait.
	submitAt(sim, st, 2, 3, 5, task.NewSubtask(1), done)
	// Cancel the blocked urgent job at t=3: inheritance must drop, so the
	// medium job preempts the holder immediately.
	sim.At(3, func() {
		if !st.Cancel(blocked) {
			t.Error("Cancel returned false for blocked job")
		}
	})
	sim.Run()
	if _, ok := done[2]; ok {
		t.Fatal("cancelled blocked job ran")
	}
	// Medium: preempts at 3 (holder back to base priority 10), runs [3,4).
	if done[3] != 4 {
		t.Fatalf("medium job finished at %v, want 4 (inheritance dropped)", done[3])
	}
	// Holder: [0,3) then [4,7).
	if done[1] != 7 {
		t.Fatalf("holder finished at %v, want 7", done[1])
	}
}

func TestCancelForeignJobReturnsFalse(t *testing.T) {
	sim := des.New()
	stA := New(sim, "a")
	stB := New(sim, "b")
	j := stA.Submit(1, 1, task.NewSubtask(5), nil)
	queued := stA.Submit(2, 2, task.NewSubtask(1), nil) // slot 0 of A's ready heap
	stB.Submit(3, 1, task.NewSubtask(5), nil)
	stB.Submit(4, 2, task.NewSubtask(1), nil) // slot 0 of B's ready heap
	var never Job                             // caller-owned storage, never submitted
	for _, foreign := range []*Job{j, queued, &never} {
		if stB.Cancel(foreign) {
			t.Fatalf("stage B cancelled task %d's job, which it does not hold", foreign.TaskID)
		}
	}
	if n := stB.ReadyLen(); n != 1 {
		t.Fatalf("stage B ready queue holds %d jobs, want 1", n)
	}
	sim.Run()
	if got := stB.Stats().Completed; got != 2 {
		t.Fatalf("stage B completed %d jobs, want 2", got)
	}
}
