package core

import (
	"math"
	"testing"
)

func TestBetasNoCriticalSectionsZero(t *testing.T) {
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10},
		{Priority: 2, Deadline: 20},
	}
	betas := Betas(3, tasks)
	for j, b := range betas {
		if b != 0 {
			t.Fatalf("beta[%d] = %v, want 0", j, b)
		}
	}
}

func TestBetasSingleBlockingPair(t *testing.T) {
	// Low-priority task holds lock 1 at stage 0 for 2s; high-priority
	// task (deadline 10) uses the same lock, so B = 2, β0 = 2/10.
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 0.5}}},
		{Priority: 5, Deadline: 50, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 2}}},
	}
	betas := Betas(1, tasks)
	if math.Abs(betas[0]-0.2) > 1e-12 {
		t.Fatalf("beta[0] = %v, want 0.2", betas[0])
	}
}

func TestBetasCeilingScreening(t *testing.T) {
	// The lower-priority task's lock is used only by other low-priority
	// tasks (ceiling 5), so it cannot block the priority-1 task under PCP.
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10},
		{Priority: 5, Deadline: 50, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 2}}},
		{Priority: 6, Deadline: 60, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 3}}},
	}
	betas := Betas(1, tasks)
	// Task prio 5 can be blocked by prio 6's 3s section: β = 3/50.
	if math.Abs(betas[0]-3.0/50) > 1e-12 {
		t.Fatalf("beta[0] = %v, want %v", betas[0], 3.0/50)
	}
}

func TestBetasPerStageSeparation(t *testing.T) {
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10, Sections: []CriticalSection{
			{Stage: 0, Lock: 1, Duration: 0.1},
			{Stage: 1, Lock: 2, Duration: 0.1},
		}},
		{Priority: 9, Deadline: 100, Sections: []CriticalSection{
			{Stage: 0, Lock: 1, Duration: 1},
			{Stage: 1, Lock: 2, Duration: 4},
		}},
	}
	betas := Betas(2, tasks)
	if math.Abs(betas[0]-0.1) > 1e-12 || math.Abs(betas[1]-0.4) > 1e-12 {
		t.Fatalf("betas = %v, want [0.1 0.4]", betas)
	}
}

func TestBetasOnlyLowerPriorityBlocks(t *testing.T) {
	// The highest-numeric (lowest) priority task cannot be blocked by the
	// more urgent one.
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 5}}},
		{Priority: 9, Deadline: 100, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 1}}},
	}
	betas := Betas(1, tasks)
	// prio 1 blocked by prio 9's 1s section: 1/10 = 0.1. prio 9 blocked
	// by nothing lower. So β0 = 0.1 (not 5/100).
	if math.Abs(betas[0]-0.1) > 1e-12 {
		t.Fatalf("beta[0] = %v, want 0.1", betas[0])
	}
}

func TestBetasFeedRegion(t *testing.T) {
	tasks := []BlockingTaskInfo{
		{Priority: 1, Deadline: 10, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 0.5}}},
		{Priority: 5, Deadline: 50, Sections: []CriticalSection{{Stage: 0, Lock: 1, Duration: 2}}},
	}
	betas := Betas(2, tasks)
	r := NewRegion(2).WithBetas(betas)
	if got := r.Bound(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("bound with blocking = %v, want 0.8", got)
	}
}
