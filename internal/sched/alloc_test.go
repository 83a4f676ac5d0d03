package sched

import (
	"math"
	"reflect"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// countDone is a Completer that counts completions.
type countDone struct{ n int }

func (c *countDone) Complete(des.Time) { c.n++ }

// TestSubmitJobAllocationFree pins the caller-owned job path at zero
// allocations: a low-priority job is dispatched, preempted by an urgent
// arrival, and both run to completion.
func TestSubmitJobAllocationFree(t *testing.T) {
	sim := des.New()
	st := New(sim, "s")
	var lo, hi Job
	var done countDone
	const cycles = 100
	run := func() {
		for i := 0; i < cycles; i++ {
			st.SubmitJob(&lo, 1, 5, task.NewSubtask(2), math.Inf(1), &done)
			st.SubmitJob(&hi, 2, 1, task.NewSubtask(1), math.Inf(1), &done)
			sim.Run()
		}
	}
	run() // grow the event pool and ready heap
	before := st.Stats()
	// Ten runs of many cycles: AllocsPerRun truncates the per-run mean,
	// so a stray runtime allocation reads 0 and one per run reads 1.
	allocs := testing.AllocsPerRun(10, run)
	after := st.Stats()
	if allocs != 0 {
		t.Fatalf("%d SubmitJob dispatch/preempt/complete cycles: %v allocs, want 0", cycles, allocs)
	}
	jobs := after.Submitted - before.Submitted
	if jobs == 0 || after.Preemptions-before.Preemptions != jobs/2 || after.Completed-before.Completed != jobs {
		t.Fatalf("cycle did not dispatch, preempt and complete every job: before %+v after %+v", before, after)
	}
	if done.n != int(after.Completed) {
		t.Fatalf("completer saw %d completions, stage %d", done.n, after.Completed)
	}
}

// TestSubmitJobResetsReusedJob submits a job whose every field holds
// stale state next to a fresh one with the same arguments: apart from
// the sequence number and heap slot, the two must be identical, so no
// field of a reused job leaks into its next submission.
func TestSubmitJobResetsReusedJob(t *testing.T) {
	stale := Job{TaskID: 99, base: -3, inherited: -4, seq: 1234,
		segments: []task.Segment{{Duration: 7, Lock: 1}}, segIdx: 3, segRemaining: 8,
		acquired: true, heldLock: &lock{id: 1}, blockedOn: &lock{id: 2},
		segStart: 5, submitted: 6, consumed: 9, budget: 10, overrunFired: true,
		done: &countDone{}, heapIdx: 4}
	stale.whole[0] = task.Segment{Duration: 11, Lock: 2}
	v := reflect.ValueOf(stale)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Job.%s is zero in the stale job: give it a stale value", v.Type().Field(i).Name)
		}
	}
	sim := des.New()
	sim.RunUntil(2)
	st := New(sim, "s")
	st.RegisterLock(1, 0)
	st.Pause() // queue both jobs without dispatching either
	var done countDone
	for _, sub := range []task.Subtask{task.NewSubtask(3), {Demand: 3, Segments: []task.Segment{{Duration: 1, Lock: task.NoLock}, {Duration: 2, Lock: 1}}}} {
		var fresh Job
		reused := stale
		st.SubmitJob(&fresh, 7, 2, sub, 5, &done)
		st.SubmitJob(&reused, 7, 2, sub, 5, &done)
		reused.seq, reused.heapIdx = fresh.seq, fresh.heapIdx
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("reused job after SubmitJob:\n%+v\nfresh job:\n%+v", reused, fresh)
		}
	}
}
