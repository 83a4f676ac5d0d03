package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

func TestChainExecutionThroughAllStages(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 3, NoAdmission: true})
	sim.At(0, func() { p.BeginMeasurement() })
	tk := task.Chain(1, 1, 100, 2, 3, 4)
	sim.At(1, func() { p.Offer(tk) })
	sim.Run()
	m := p.Snapshot()
	if m.Completed != 1 || m.Missed != 0 {
		t.Fatalf("metrics %+v", m)
	}
	// Unloaded pipeline: response is the sum of demands.
	if got := m.ResponseTimes.Mean(); got != 9 {
		t.Fatalf("response %v, want 9", got)
	}
	// Each stage was busy exactly its demand.
	want := []float64{2, 3, 4}
	for j := range want {
		if got := p.Stage(j).BusyTime(sim.Now()); got != want[j] {
			t.Fatalf("stage %d busy %v, want %v", j, got, want[j])
		}
	}
}

func TestZeroDemandStagesSkipped(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 3, NoAdmission: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() { p.Offer(task.Chain(1, 0, 100, 0, 5, 0)) })
	sim.Run()
	m := p.Snapshot()
	if m.Completed != 1 {
		t.Fatalf("completed %d", m.Completed)
	}
	if got := m.ResponseTimes.Mean(); got != 5 {
		t.Fatalf("response %v, want 5 (zero stages skipped)", got)
	}
	if p.Stage(0).Stats().Submitted != 0 || p.Stage(2).Stats().Submitted != 0 {
		t.Fatal("zero-demand stages must not receive jobs")
	}
}

func TestAllZeroTaskCompletesInstantly(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 2, NoAdmission: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(3, func() { p.Offer(task.Chain(1, 3, 10, 0, 0)) })
	sim.Run()
	m := p.Snapshot()
	if m.Completed != 1 || m.ResponseTimes.Mean() != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPipelinePrecedenceOrdering(t *testing.T) {
	// A task cannot start at stage j+1 before finishing stage j, even if
	// stage j+1 is idle.
	sim := des.New()
	p := New(sim, Options{Stages: 2, NoAdmission: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(task.Chain(1, 0, 100, 5, 1))
		p.Offer(task.Chain(2, 0, 50, 1, 1)) // more urgent (shorter deadline)
	})
	sim.Run()
	// Task 2 preempts at stage 1 (DM), finishes stage 1 at 1, stage 2 at
	// 2. Task 1 resumes, stage 1 at 6, stage 2 at 7.
	m := p.Snapshot()
	if m.Completed != 2 {
		t.Fatalf("completed %d", m.Completed)
	}
	if got := m.ResponseTimes.Max(); got != 7 {
		t.Fatalf("max response %v, want 7", got)
	}
}

func TestAdmissionRejectsOverload(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 2})
	sim.At(0, func() { p.BeginMeasurement() })
	admitted := 0
	sim.At(0, func() {
		for i := 0; i < 10; i++ {
			// Each task contributes 0.25 per stage; f(0.25)·2 ≈ 0.58 per
			// admitted pair... region fills quickly.
			if p.Offer(task.Chain(task.ID(i), 0, 4, 1, 1)) {
				admitted++
			}
		}
	})
	sim.Run()
	if admitted == 0 || admitted == 10 {
		t.Fatalf("admitted %d of 10, expected partial", admitted)
	}
	m := p.Snapshot()
	if m.Missed != 0 {
		t.Fatalf("admitted tasks missed deadlines: %+v", m)
	}
	if m.Offered != 10 {
		t.Fatalf("offered %d, want 10", m.Offered)
	}
}

func TestTaskStageCountMismatchPanics(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 2, NoAdmission: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Offer(task.Chain(1, 0, 10, 1))
}

func TestInjectBypassesAdmission(t *testing.T) {
	sim := des.New()
	// Region with a full reserved floor: TryAdmit would reject anything.
	p := New(sim, Options{Stages: 1, Reserved: []float64{0.58}})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() { p.Inject(task.Chain(1, 0, 10, 1)) })
	sim.Run()
	if got := p.Snapshot().Completed; got != 1 {
		t.Fatalf("completed %d, want 1 (injected)", got)
	}
}

func TestUtilizationMeasurement(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 2, NoAdmission: true})
	// Warmup work before measurement must not count.
	sim.At(0, func() { p.Offer(task.Chain(1, 0, 100, 5, 5)) })
	sim.At(10, func() { p.BeginMeasurement() })
	sim.At(10, func() { p.Offer(task.Chain(2, 10, 100, 2, 0)) })
	sim.At(30, func() {
		m := p.Snapshot()
		// Window [10, 30]: stage 0 busy 2 of 20 = 0.1; stage 1 idle.
		if math.Abs(m.StageUtilization[0]-0.1) > 1e-9 {
			t.Errorf("stage 0 utilization %v, want 0.1", m.StageUtilization[0])
		}
		if m.StageUtilization[1] != 0 {
			t.Errorf("stage 1 utilization %v, want 0", m.StageUtilization[1])
		}
		if math.Abs(m.MeanUtilization-0.05) > 1e-9 {
			t.Errorf("mean utilization %v, want 0.05", m.MeanUtilization)
		}
		if m.BottleneckUtilization != m.StageUtilization[0] {
			t.Error("bottleneck should be stage 0")
		}
	})
	sim.Run()
}

func TestMissDetection(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, NoAdmission: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(task.Chain(1, 0, 3, 2))   // meets (response 2 ≤ 3)
		p.Offer(task.Chain(2, 0, 3.5, 2)) // queued behind: response 4 > 3.5
	})
	sim.Run()
	m := p.Snapshot()
	if m.Completed != 2 || m.Missed != 1 {
		t.Fatalf("completed/missed = %d/%d, want 2/1", m.Completed, m.Missed)
	}
	if m.MissRatio != 0.5 {
		t.Fatalf("miss ratio %v, want 0.5", m.MissRatio)
	}
}

func TestWaitQueueIntegration(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, MaxWait: 5})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(task.Chain(1, 0, 2, 0.7)) // 0.35: admitted
		// Second task: 0.7 total -> outside; after the idle reset at
		// t=0.7 its shortened deadline still fits (f(0.7/1.3) ≤ 1).
		p.Offer(task.Chain(2, 0, 2, 0.7))
	})
	sim.Run()
	m := p.Snapshot()
	if m.Completed != 2 {
		t.Fatalf("completed %d, want 2 (wait queue admission)", m.Completed)
	}
	if m.Missed != 0 {
		t.Fatalf("missed %d, want 0", m.Missed)
	}
	ws := p.WaitQueue().Stats()
	if ws.AdmittedAfterWait != 1 {
		t.Fatalf("wait stats %+v, want one late admission", ws)
	}
}

func TestIdleResetAblationAdmitsLess(t *testing.T) {
	// The §4 example: back-to-back C=1, D=2 tasks, one at a time. With
	// idle reset every task is admitted; without it the ledger stays
	// saturated until deadlines expire, so some tasks are rejected.
	run := func(disable bool) (admitted int) {
		sim := des.New()
		p := New(sim, Options{Stages: 1, DisableIdleReset: disable})
		for i := 0; i < 10; i++ {
			i := i
			sim.At(float64(i)*1.01, func() {
				if p.Offer(task.Chain(task.ID(i), sim.Now(), 2, 1)) {
					admitted++
				}
			})
		}
		sim.Run()
		return admitted
	}
	with := run(false)
	without := run(true)
	if with != 10 {
		t.Fatalf("with idle reset admitted %d of 10, want all", with)
	}
	if without >= with {
		t.Fatalf("ablation admitted %d, want fewer than %d", without, with)
	}
}

func TestSnapshotBeforeMeasurementPanics(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, NoAdmission: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Snapshot()
}

func TestPipelineOptionValidation(t *testing.T) {
	sim := des.New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero stages")
		}
	}()
	New(sim, Options{Stages: 0})
}

func TestPerClassMetrics(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1})
	sim.At(0, func() { p.BeginMeasurement() })
	mk := func(id task.ID, class string, c float64) *task.Task {
		tk := task.Chain(id, 0, 2, c)
		tk.Class = class
		return tk
	}
	sim.At(0, func() {
		p.Offer(mk(1, "api", 0.5))   // admitted, completes at 0.5
		p.Offer(mk(2, "batch", 0.5)) // admitted (0.5 total: f(0.5)=0.75)
		p.Offer(mk(3, "batch", 0.5)) // rejected (0.75 -> f=1.875)
	})
	sim.Run()
	m := p.Snapshot()
	api, batch := m.ByClass["api"], m.ByClass["batch"]
	if api.Offered != 1 || api.Entered != 1 || api.Completed != 1 || api.Missed != 0 {
		t.Fatalf("api metrics %+v", api)
	}
	if batch.Offered != 2 || batch.Entered != 1 || batch.Completed != 1 {
		t.Fatalf("batch metrics %+v", batch)
	}
}

// TestClassCountsAcrossWindowAndManyClasses runs twelve classes (past
// the names the pipeline scans before it hashes) and opens the
// measurement window while some are in flight: lifetime entry counts
// keep every start, and the window counts only what happens inside it.
func TestClassCountsAcrossWindowAndManyClasses(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, NoAdmission: true})
	offer := func(id task.ID, class int) {
		tk := task.Chain(id, sim.Now(), 100, 1)
		tk.Class = fmt.Sprint("c", class)
		p.Offer(tk)
	}
	sim.At(0, func() {
		for c := 0; c < 12; c++ {
			offer(task.ID(c), c) // one job a second, in offer order
		}
	})
	sim.At(5.5, p.BeginMeasurement)
	sim.At(6, func() { offer(12, 0); offer(13, 11) })
	sim.Run()
	entered := p.EnteredByClass()
	for c := 0; c < 12; c++ {
		want := map[bool]uint64{false: 1, true: 2}[c == 0 || c == 11]
		if got := entered[fmt.Sprint("c", c)]; got != want {
			t.Errorf("class c%d entered %d times over the lifetime, want %d", c, got, want)
		}
	}
	want := map[string]ClassMetrics{"c0": {Offered: 1, Entered: 1, Completed: 1}, "c11": {Offered: 1, Entered: 1, Completed: 2}}
	for c := 5; c <= 10; c++ {
		want[fmt.Sprint("c", c)] = ClassMetrics{Completed: 1} // started before the window
	}
	if got := p.Snapshot().ByClass; !reflect.DeepEqual(got, want) {
		t.Fatalf("window ByClass %+v, want %+v", got, want)
	}
}

func TestPerClassShedCounted(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		low := task.Chain(1, 0, 2, 1)
		low.Class = "low"
		low.Importance = 1
		p.Offer(low)
		hi := task.Chain(2, 0, 2, 1)
		hi.Class = "hi"
		hi.Importance = 9
		p.Offer(hi)
	})
	sim.Run()
	m := p.Snapshot()
	if m.ByClass["low"].Shed != 1 {
		t.Fatalf("low class shed %d, want 1", m.ByClass["low"].Shed)
	}
	if m.ByClass["hi"].Completed != 1 {
		t.Fatalf("hi class completed %d, want 1", m.ByClass["hi"].Completed)
	}
}

// TestRandomConfigurationsSoundQuick: random small configurations (stage
// count, load pattern, policy flags) never produce a miss under exact
// admission, and the pipeline's counters stay consistent.
func TestRandomConfigurationsSoundQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	f := func(stagesRaw, seedRaw uint8, loadRaw uint16, reset bool) bool {
		stages := 1 + int(stagesRaw)%4
		load := 0.5 + float64(loadRaw)/65536*1.5
		sim := des.New()
		p := New(sim, Options{Stages: stages, DisableIdleReset: reset})
		g := dist.NewRNG(int64(seedRaw) + 1)
		sim.At(0, func() { p.BeginMeasurement() })
		at := 0.0
		n := 0
		for at < 300 {
			at += g.ExpFloat64() / load
			demands := make([]float64, stages)
			for j := range demands {
				demands[j] = g.ExpFloat64()
			}
			d := (10 + g.Float64()*40) * float64(stages)
			releaseAt := at
			id := task.ID(n)
			n++
			sim.At(releaseAt, func() {
				p.Offer(task.Chain(id, releaseAt, d, demands...))
			})
		}
		sim.Run()
		m := p.Snapshot()
		if m.Missed != 0 {
			return false
		}
		// Counter consistency: completions cannot exceed admissions.
		return m.Completed <= m.EnteredService
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
