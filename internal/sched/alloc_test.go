package sched

import (
	"math"
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
