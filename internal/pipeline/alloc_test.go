package pipeline

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
	"feasregion/internal/workload"
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
		a.sim.AtTimer(now+a.gap, a)
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
			sim.AtTimer(sim.Now(), a)
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

// twiceRecordedTrace records the scenario and appends a second copy of
// its records, shifted so that replayed at the rate multiplier every
// first-copy deadline has passed before the second copy begins. It
// returns the trace and the second copy's first (unscaled) arrival.
func twiceRecordedTrace(t *testing.T, sc *workload.Scenario, rate float64) ([]byte, float64) {
	t.Helper()
	var once bytes.Buffer
	if _, err := sc.RecordTrace(&once); err != nil {
		t.Fatal(err)
	}
	var recs []workload.TraceRecord
	var classes []string
	for pass := 0; pass < 2; pass++ {
		tr, err := workload.OpenTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		classes = tr.Classes()
		for {
			var rec workload.TraceRecord
			if err := tr.Next(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
	half := len(recs) / 2
	shift := recs[half-1].Arrival
	for _, rec := range recs[:half] {
		shift = max(shift, rec.Arrival+rate*rec.Deadline)
	}
	var out bytes.Buffer
	tw, err := workload.NewTraceWriter(&out, sc.Stages, classes)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i >= half {
			rec.Arrival += shift
		}
		if err := tw.Write(rec.Arrival, rec.Deadline, rec.Class, rec.Demands); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), recs[half].Arrival + shift
}

// TestReplayOfferAllocationFree gates the replayer → Pipeline.Offer pair
// that the end-to-end sim-pipeline workload drives: a recorded scenario
// trace, replayed at 12× into a three-stage pipeline with a metrics
// registry. The trace holds the scenario twice; the first copy warms
// the pipeline up and drains, and the second is measured from a
// runtime.MemStats delta. The replayer offers one reused task and the pipeline copies
// what it keeps, so the measured copy allocates next to nothing.
func TestReplayOfferAllocationFree(t *testing.T) {
	const rate = 12
	sc := &workload.Scenario{
		Stages:     3,
		MeanDemand: 1.0 / 3,
		Curve:      []workload.RatePoint{{At: 0, Rate: 0.3}, {At: 10000, Rate: 0.7}, {At: 20000, Rate: 0.3}},
		Cohorts: []workload.Cohort{
			{Name: "interactive", Share: 0.6, DemandScale: 0.7, Resolution: 120},
			{Name: "batch", Share: 0.3, DemandScale: 1.5, Resolution: 400},
			{Name: "control", Share: 0.1, DemandScale: 0.4, Resolution: 40},
		},
		Crowds:  []workload.FlashCrowd{{Start: 5000, Duration: 1000, Multiplier: 1.8}},
		Horizon: 20000,
		Seed:    42,
	}
	data, second := twiceRecordedTrace(t, sc, rate)
	tr, err := workload.OpenTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	p := New(sim, Options{Stages: 3, Metrics: metrics.NewRegistry()})
	p.BeginMeasurement()
	rp, err := workload.NewReplayer(sim, tr, workload.ReplayOptions{RateMultiplier: rate},
		func(tk *task.Task) { p.Offer(tk) })
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(second/rate - 1e-9) // the warm-up copy
	warm := rp.Replayed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run()
	runtime.ReadMemStats(&after)
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
	n := float64(rp.Replayed() - warm)
	if n == 0 || n != float64(warm) {
		t.Fatalf("measured %v arrivals after a %d-arrival warm-up; want two equal copies", n, warm)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f arrivals: %.4f allocs and %.2f B per arrival", n, allocs, bytesPer)
	if allocs > 0.05 || bytesPer > 16 {
		t.Fatalf("replay into the pipeline: %.4f allocs and %.2f B per arrival, want ≤ 0.05 and ≤ 16", allocs, bytesPer)
	}
	if m := p.Snapshot(); m.Completed == 0 || m.EnteredService == m.Offered {
		t.Fatalf("replay did not exercise admit and reject: %+v", m)
	}
}

// TestGraphRejectedOfferAllocationFree: GraphSystem copies a DAG task
// only when it keeps it, so an Offer that the Theorem 2 test rejects
// allocates nothing.
func TestGraphRejectedOfferAllocationFree(t *testing.T) {
	sim := des.New()
	g := NewGraphSystem(sim, GraphOptions{Resources: 4})
	if !g.Offer(&task.Task{ID: 0, Deadline: 1e9, Graph: figure3Graph(0.2e9, 0.2e9, 0.2e9, 0.2e9)}) {
		t.Fatal("the task filling the region was rejected")
	}
	tk := &task.Task{ID: 1, Deadline: 10, Graph: figure3Graph(1, 2, 2, 1)}
	if g.Offer(tk) {
		t.Fatal("an arrival past the region was admitted")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Offer(tk) }); allocs != 0 {
		t.Fatalf("a rejected Offer: %v allocs, want 0", allocs)
	}
	if st := g.Controller().Stats(); st.Admitted != 1 || st.Rejected != 102 {
		t.Fatalf("controller stats %+v, want 1 admitted and 102 rejected", st)
	}
}
