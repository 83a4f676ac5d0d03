package sched

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// cs builds a subtask: pre seconds non-critical, cs seconds inside lock,
// post seconds non-critical.
func cs(pre, csDur, post float64, lockID int) task.Subtask {
	var segs []task.Segment
	if pre > 0 {
		segs = append(segs, task.Segment{Duration: pre, Lock: task.NoLock})
	}
	segs = append(segs, task.Segment{Duration: csDur, Lock: lockID})
	if post > 0 {
		segs = append(segs, task.Segment{Duration: post, Lock: task.NoLock})
	}
	d := pre + csDur + post
	return task.Subtask{Demand: d, Segments: segs}
}

func TestMutualExclusion(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	inCS := 0
	maxInCS := 0
	// Wrap: track entry/exit by splitting critical sections with probes.
	// Instead, verify via completion times: two equal-priority jobs with
	// 1s critical sections submitted together must serialize.
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 5, cs(0, 1, 0, 1), done)
	submitAt(sim, st, 0, 2, 5, cs(0, 1, 0, 1), done)
	runChecked(t, sim, st)
	if done[1] != 1 || done[2] != 2 {
		t.Fatalf("critical sections overlapped: completions %v", done)
	}
	_ = inCS
	_ = maxInCS
}

func TestDirectBlockingAndInheritance(t *testing.T) {
	// Classic scenario: low-priority L locks R, then high-priority H
	// arrives and needs R; a medium-priority M (no locks) must NOT run
	// while H waits, because L inherits H's priority.
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0) // ceiling covers H (priority 0)
	done := map[task.ID]des.Time{}
	const (
		low  task.ID = 1
		high task.ID = 2
		med  task.ID = 3
	)
	// L: 1s pre, 4s CS, 1s post; starts at 0, enters CS at 1.
	submitAt(sim, st, 0, low, 10, cs(1, 4, 1, 1), done)
	// H arrives at 2 (L inside CS): 1s pre, 1s CS, 0 post.
	submitAt(sim, st, 2, high, 0, cs(1, 1, 0, 1), done)
	// M arrives at 2.5 with priority between H and L, pure computation 2s.
	submitAt(sim, st, 2.5, med, 5, task.NewSubtask(2), done)
	runChecked(t, sim, st)
	// Timeline: L runs [0,2) (1 pre + 1 CS). H preempts at 2, runs pre
	// [2,3), tries lock at 3 -> blocked; L inherits prio 0, resumes CS
	// [3,6); at 6 L releases; H acquires, CS [6,7), done 7. Then M
	// [7,9), done 9. Then L post [9,10), done 10.
	if done[high] != 7 {
		t.Fatalf("H done at %v, want 7 (blocked exactly one CS remainder)", done[high])
	}
	if done[med] != 9 {
		t.Fatalf("M done at %v, want 9 (must not run during inheritance)", done[med])
	}
	if done[low] != 10 {
		t.Fatalf("L done at %v, want 10", done[low])
	}
}

func TestCeilingBlockingPreventsDeadlockPattern(t *testing.T) {
	// PCP's ceiling rule: while L holds lock A (ceiling 0), a job H that
	// wants lock B (free!) with priority not above the system ceiling is
	// still blocked. This is what bounds blocking to a single critical
	// section and prevents deadlock with nested locks.
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0) // lock A: used by a priority-0 task eventually
	st.RegisterLock(2, 3)
	done := map[task.ID]des.Time{}
	// L (priority 10) locks A for 4s starting at t=0.
	submitAt(sim, st, 0, 1, 10, cs(0, 4, 0, 1), done)
	// H (priority 3) arrives at 1 and wants B, which is free. Ceiling of
	// A is 0, which is not numerically greater than 3, so H blocks.
	submitAt(sim, st, 1, 2, 3, cs(0, 1, 0, 2), done)
	runChecked(t, sim, st)
	// L inherits 3 (no change in behavior, nothing else ready), finishes
	// CS at 4 (it ran [0,4)); H then runs [4,5).
	if done[1] != 4 {
		t.Fatalf("L done at %v, want 4", done[1])
	}
	if done[2] != 5 {
		t.Fatalf("H done at %v, want 5 (ceiling-blocked until release)", done[2])
	}
}

func TestHigherThanCeilingProceedsConcurrently(t *testing.T) {
	// A job strictly more urgent than every held lock's ceiling may take
	// a different free lock immediately.
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 5) // held by L
	st.RegisterLock(2, 0) // wanted by H
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 9, cs(0, 10, 0, 1), done) // L in CS on lock 1
	submitAt(sim, st, 2, 2, 0, cs(0, 1, 0, 2), done)  // H: priority 0 < ceiling 5
	runChecked(t, sim, st)
	if done[2] != 3 {
		t.Fatalf("H done at %v, want 3 (preempts, lock 2 granted: prio above system ceiling)", done[2])
	}
	if done[1] != 11 {
		t.Fatalf("L done at %v, want 11", done[1])
	}
}

func TestBlockingBoundedByOneCriticalSection(t *testing.T) {
	// Under PCP a job is blocked for at most the duration of ONE lower
	// priority critical section, even with multiple locks in play.
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	st.RegisterLock(2, 0)
	done := map[task.ID]des.Time{}
	// Two low-priority jobs each with a 3s critical section on different
	// locks. The second cannot enter its CS while the first holds one
	// (ceiling blocking), so H is blocked at most once.
	submitAt(sim, st, 0, 1, 10, cs(0, 3, 0, 1), done)
	submitAt(sim, st, 0.5, 2, 9, cs(0, 3, 0, 2), done)
	var hDone des.Time
	sim.At(1, func() {
		st.Submit(3, 0, cs(0, 0.5, 0, 1), func(now des.Time) { hDone = now })
	})
	runChecked(t, sim, st)
	// H arrives at 1. Job 1 is in its CS (holds lock 1, started 0, ends
	// 3). Job 2 preempted job... job 2 arrives 0.5 with higher prio (9 <
	// 10): preempts, tries lock 2; ceiling of held lock 1 is 0 >= 9's
	// urgency -> blocked; job 1 resumes with inherited 9. H arrives at 1,
	// preempts, tries lock 1 -> blocked (direct), job 1 inherits 0, runs
	// CS to completion at... job 1 CS: ran [0,0.5) and [0.5? no: job 2
	// blocked immediately at 0.5 (its first segment is the CS), so job 1
	// resumed at 0.5, CS ends at 3. H blocked [1,3): less than one full
	// CS. H then acquires, CS [3,3.5), done at 3.5.
	if hDone != 3.5 {
		t.Fatalf("H done at %v, want 3.5 (blocked by at most one critical section)", hDone)
	}
	// Max blocking H experienced = 2s < 3s (one CS length).
	if done[1] != 3 {
		t.Fatalf("low job done at %v, want 3 (completes at its release)", done[1])
	}
	if done[2] != 6.5 {
		t.Fatalf("mid job done at %v, want 6.5 (runs after H)", done[2])
	}
}

func TestPreemptedInsideCriticalSectionKeepsLock(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	done := map[task.ID]des.Time{}
	// L enters CS at 0 for 4s. A completely independent urgent job (no
	// locks) preempts mid-CS; L must resume and release correctly, and a
	// later same-lock job must wait for the full release.
	submitAt(sim, st, 0, 1, 10, cs(0, 4, 0, 1), done)
	submitAt(sim, st, 1, 2, 0, task.NewSubtask(2), done) // preempts [1,3)
	submitAt(sim, st, 2, 3, 5, cs(0, 1, 0, 1), done)     // wants lock 1
	runChecked(t, sim, st)
	if done[2] != 3 {
		t.Fatalf("urgent job done at %v, want 3", done[2])
	}
	// L: [0,1) CS, preempted [1,3), job 3 arrives at 2 but blocks on lock
	// (L holds it, inherits 5), L resumes [3,6) finishing CS, then job 3
	// runs [6,7).
	if done[1] != 6 {
		t.Fatalf("lock holder done at %v, want 6", done[1])
	}
	if done[3] != 7 {
		t.Fatalf("waiter done at %v, want 7", done[3])
	}
}

func TestRegisterLockTightensCeiling(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 5)
	st.RegisterLock(1, 2) // tighter
	st.RegisterLock(1, 9) // looser, ignored
	if got := st.locks[1].ceiling; got != 2 {
		t.Fatalf("ceiling = %v, want 2 (most urgent registration wins)", got)
	}
}

func TestRegisterNoLockSentinelPanics(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.RegisterLock(task.NoLock, 0)
}

func TestMultiSegmentJobRunsAllSegments(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 1, cs(1, 2, 3, 1), done)
	runChecked(t, sim, st)
	if done[1] != 6 {
		t.Fatalf("multi-segment job done at %v, want 6", done[1])
	}
	if got := st.BusyTime(sim.Now()); got != 6 {
		t.Fatalf("busy time %v, want 6", got)
	}
}

func TestBlockedCountVisible(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.RegisterLock(1, 0)
	submitAt(sim, st, 0, 1, 10, cs(0, 5, 0, 1), map[task.ID]des.Time{})
	sim.At(1, func() {
		st.Submit(2, 0, cs(0, 1, 0, 1), nil)
	})
	sim.At(1.5, func() {
		if len(st.blocked) != 1 {
			t.Errorf("BlockedLen = %d, want 1", len(st.blocked))
		}
	})
	runChecked(t, sim, st)
	if len(st.blocked) != 0 {
		t.Fatalf("BlockedLen at end = %d, want 0", len(st.blocked))
	}
}

// TestInheritanceChangesReorderQueuedHolder covers the two ways a lock
// holder waiting in the ready queue loses inherited priority: another
// job's lock release (which re-readies the blocked jobs and clears
// every holder's inheritance) and the Cancel of the job it inherited
// from. The queued holder must be re-ranked at once.
func TestInheritanceChangesReorderQueuedHolder(t *testing.T) {
	t.Run("release", func(t *testing.T) {
		sim := des.New()
		st := New(sim, "s0")
		st.RegisterLock(1, 5)
		st.RegisterLock(2, 0)
		done := map[task.ID]des.Time{}
		submitAt(sim, st, 0, 1, 9, cs(0, 10, 0, 1), done) // L holds lock 1
		submitAt(sim, st, 1, 2, 6, cs(0, 1, 0, 1), done)  // B blocks; L inherits 6
		submitAt(sim, st, 2, 3, 0, cs(0, 1, 1, 2), done)  // H preempts L, takes lock 2
		submitAt(sim, st, 2.5, 4, 7, task.NewSubtask(1), done)
		// H's release at 3 re-readies B and clears L's inheritance while L
		// is queued; B re-blocks at 4 and L inherits again.
		runChecked(t, sim, st)
		for id, want := range map[task.ID]des.Time{3: 4, 1: 12, 2: 13, 4: 14} {
			if done[id] != want {
				t.Errorf("task %d done at %v, want %v", id, done[id], want)
			}
		}
	})
	t.Run("cancel", func(t *testing.T) {
		sim := des.New()
		st := New(sim, "s0")
		st.RegisterLock(1, 0)
		done := map[task.ID]des.Time{}
		submitAt(sim, st, 0, 1, 10, cs(0, 6, 0, 1), done) // L holds lock 1
		var blocked *Job
		sim.At(1, func() { blocked = st.Submit(2, 2, cs(0, 1, 0, 1), nil) }) // L inherits 2
		submitAt(sim, st, 2, 3, 0, task.NewSubtask(2), done)                 // U preempts L
		submitAt(sim, st, 2.5, 4, 5, task.NewSubtask(1), done)               // M queues
		sim.At(3, func() { st.Cancel(blocked) })                             // L back to 10
		runChecked(t, sim, st)
		// M now outranks the queued holder: U [2,4), M [4,5), L [5,9).
		for id, want := range map[task.ID]des.Time{3: 4, 4: 5, 1: 9} {
			if done[id] != want {
				t.Errorf("task %d done at %v, want %v", id, done[id], want)
			}
		}
	})
}
