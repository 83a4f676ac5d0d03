package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
)

// arrivals offers a fixed set of task values one after another, spaced
// by gap; it reschedules itself, so offering allocates nothing of its own.
type arrivals struct {
	sim   *des.Simulator
	p     *Pipeline
	tasks []*task.Task
	gap   float64
	next  int
}

func (a *arrivals) Fire(now des.Time) {
	t := a.tasks[a.next]
	t.Arrival = now
	a.p.Offer(t)
	if a.next++; a.next < len(a.tasks) {
		a.sim.AfterTimer(a.gap, a)
	}
}

// TestOfferDrainAllocationFree pins the plain pipeline's data path —
// admission, DM stage schedulers with preemption, departures, idle
// reset and deadline expiry, with the metrics registry on — near zero
// allocations per arrival once warmed up. Each cycle replays the same
// task values (every contribution has expired by the end of a drain).
func TestOfferDrainAllocationFree(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 3, Metrics: metrics.NewRegistry()})
	p.BeginMeasurement()
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		// Mixed deadlines give the DM schedulers preemptions; the load
		// is high enough that some arrivals are rejected.
		d := 0.5 + float64(i%5)*0.25
		tasks[i] = task.Chain(task.ID(i), 0, d, 0.02, 0.04*float64(1+i%3), 0.03)
	}
	a := &arrivals{sim: sim, p: p, tasks: tasks, gap: 0.01}
	const cycles = 50
	run := func() {
		for i := 0; i < cycles; i++ {
			a.next = 0
			sim.AfterTimer(0, a)
			sim.Run()
		}
	}
	// One run of many cycles: AllocsPerRun truncates the per-run mean.
	allocs := testing.AllocsPerRun(1, run) / (cycles * float64(len(tasks)))
	t.Logf("%.4f allocs per arrival", allocs)
	if allocs > 0.05 {
		t.Fatalf("offer/drain cycle: %.3f allocs per arrival, want ≤ 0.05", allocs)
	}
	m := p.Snapshot()
	var preemptions uint64
	for j := 0; j < p.Stages(); j++ {
		preemptions += p.Stage(j).Stats().Preemptions
	}
	if m.Completed == 0 || m.EnteredService == m.Offered || preemptions == 0 || m.Completed != m.EnteredService {
		t.Fatalf("cycle did not exercise admit, reject, preempt and drain: %+v, %d preemptions", m, preemptions)
	}
}
