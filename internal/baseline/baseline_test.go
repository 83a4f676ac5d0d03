package baseline

import (
	"math"
	"testing"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/pipeline"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

func TestSplitDeadlineAdmitsLight(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 2)
	// C=(1,1), D=10 -> per-stage deadline 5, contribution 0.2 < 0.586.
	if !c.TryAdmit(task.Chain(1, 0, 10, 1, 1)) {
		t.Fatal("light task rejected")
	}
	us := c.Utilizations()
	if math.Abs(us[0]-0.2) > 1e-12 || math.Abs(us[1]-0.2) > 1e-12 {
		t.Fatalf("utilizations %v, want [0.2 0.2]", us)
	}
}

func TestSplitDeadlineExpiryPerStage(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 2)
	c.TryAdmit(task.Chain(1, 0, 10, 1, 1))
	sim.RunUntil(6) // past stage 0's intermediate deadline (5), before 10
	us := c.Utilizations()
	if us[0] != 0 || us[1] == 0 {
		t.Fatalf("utilizations %v, want stage 0 expired only", us)
	}
	sim.RunUntil(11)
	if got := c.Utilizations()[1]; got != 0 {
		t.Fatalf("stage 1 utilization %v after end-to-end deadline", got)
	}
}

func TestSplitDeadlineMorePessimisticThanRegion(t *testing.T) {
	// The same task is accepted by the end-to-end region but rejected by
	// the split-deadline test: C=(1,1), D=4. Split: per-stage deadline 2,
	// contribution 0.5 per stage... still under 0.586. Use C=(1.3, 1.3):
	// split contribution 0.65 > 0.586 rejected; region: U=0.325 each,
	// f(0.325)*2 ≈ 0.81 ≤ 1 accepted.
	sim := des.New()
	split := NewSplitDeadlineController(sim, 2)
	region := core.NewController(sim, core.NewRegion(2), nil)
	tk := task.Chain(1, 0, 4, 1.3, 1.3)
	if split.TryAdmit(tk) {
		t.Fatal("split-deadline baseline unexpectedly admitted")
	}
	if !region.TryAdmit(tk) {
		t.Fatal("feasible region unexpectedly rejected")
	}
}

func TestSplitDeadlineRejectsMismatchedTask(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 2)
	if c.TryAdmit(task.Chain(1, 0, 10, 1)) {
		t.Fatal("admitted task with wrong stage count")
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestSplitDeadlineSoundInSimulation: the baseline, though pessimistic,
// must also be sound — no admitted task misses its deadline under DM.
func TestSplitDeadlineSoundInSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sim := des.New()
	split := NewSplitDeadlineController(sim, 2)
	p := pipeline.New(sim, pipeline.Options{Stages: 2, Admitter: split})
	spec := workload.PipelineSpec{Stages: 2, Load: 1.5, MeanDemand: 1, Resolution: 20}
	src := workload.NewSource(sim, spec, 21, 1500, func(tk *task.Task) { p.Offer(tk) })
	sim.At(0, func() { p.BeginMeasurement() })
	src.Start()
	sim.Run()
	m := p.Snapshot()
	if m.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if m.Missed != 0 {
		t.Fatalf("baseline admitted %d tasks that missed deadlines", m.Missed)
	}
}

// TestSplitDeadlineAdmitsFewerThanRegion: under identical load the
// end-to-end feasible region achieves higher accepted utilization.
func TestSplitDeadlineAdmitsFewerThanRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(useSplit bool) float64 {
		sim := des.New()
		opts := pipeline.Options{Stages: 2}
		if useSplit {
			opts.Admitter = NewSplitDeadlineController(sim, 2)
		}
		p := pipeline.New(sim, opts)
		spec := workload.PipelineSpec{Stages: 2, Load: 1.2, MeanDemand: 1, Resolution: 50}
		src := workload.NewSource(sim, spec, 33, 3000, func(tk *task.Task) { p.Offer(tk) })
		sim.At(300, func() { p.BeginMeasurement() })
		src.Start()
		sim.Run()
		return p.Snapshot().MeanUtilization
	}
	regionUtil := run(false)
	splitUtil := run(true)
	if splitUtil >= regionUtil {
		t.Fatalf("split-deadline utilization %.3f should be below region %.3f", splitUtil, regionUtil)
	}
}

// TestSplitDeadlineStaleExpiryAfterReadmit: a task departs and is
// idle-reset away, its ID is re-admitted, and the first admission's
// deadline must leave the new charge alone.
func TestSplitDeadlineStaleExpiryAfterReadmit(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 1)
	if !c.TryAdmit(task.Chain(7, 0, 10, 1)) {
		t.Fatal("first admission rejected")
	}
	c.MarkDeparted(0, 7)
	c.HandleStageIdle(0)
	sim.RunUntil(5)
	if !c.TryAdmit(task.Chain(7, 5, 10, 1.25)) {
		t.Fatal("re-admission rejected")
	}
	want := c.Utilizations()[0]
	sim.RunUntil(12) // past the first admission's deadline (10)
	if u := c.Utilizations()[0]; u != want || u != 0.125 {
		t.Fatalf("utilization %v after the stale deadline, want the live task's %v", u, want)
	}
}

// TestSplitDeadlineStaleIntermediateDeadline is the N=3 variant: the
// first admission's stage-1 and stage-2 intermediate deadlines (8, 12)
// come after the re-admission at 5, whose own deadlines are 9, 13, 17.
// Neither may strip the new charges; each stage clears at its own.
func TestSplitDeadlineStaleIntermediateDeadline(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 3)
	if !c.TryAdmit(task.Chain(7, 0, 12, 1, 1, 1)) {
		t.Fatal("first admission rejected")
	}
	for j := 0; j < 3; j++ {
		c.MarkDeparted(j, 7)
		c.HandleStageIdle(j)
	}
	sim.RunUntil(5)
	if !c.TryAdmit(task.Chain(7, 5, 12, 1, 1, 1)) {
		t.Fatal("re-admission rejected")
	}
	for _, step := range []struct {
		until float64
		want  []float64
	}{
		{8.5, []float64{0.25, 0.25, 0.25}}, // first admission's stage-1 deadline passed
		{12.5, []float64{0, 0.25, 0.25}},   // its stage-2 deadline passed; ours cleared stage 0
		{13.5, []float64{0, 0, 0.25}},
		{17.5, []float64{0, 0, 0}},
	} {
		sim.RunUntil(step.until)
		us := c.Utilizations()
		for j, want := range step.want {
			if us[j] != want {
				t.Fatalf("t=%v: utilizations %v, want %v", step.until, us, step.want)
			}
		}
	}
}

// TestSplitDeadlineRejectsMalformed checks the baseline rejects a task
// with a negative or NaN demand, or a deadline that is not positive and
// finite. Charged, the {-4, 0.1} task would give stage 0 negative
// utilization, and three of the {2, 0.01} tasks (0.4 each at stage 0)
// would fit under the 0.586 bound instead of one.
func TestSplitDeadlineRejectsMalformed(t *testing.T) {
	sim := des.New()
	c := NewSplitDeadlineController(sim, 2)
	for _, tk := range []*task.Task{
		task.Chain(1, 0, 10, -4, 0.1),
		task.Chain(2, 0, math.Inf(1), 1, 1),
		task.Chain(3, 0, math.NaN(), 1, 1),
		task.Chain(4, 0, 10, 1, math.NaN()),
	} {
		if c.TryAdmit(tk) {
			t.Errorf("task %d admitted", tk.ID)
		}
	}
	admitted := 0
	for id := task.ID(10); id < 13; id++ {
		if c.TryAdmit(task.Chain(id, 0, 10, 2, 0.01)) {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of three 0.4-utilization tasks fit stage 0, want 1", admitted)
	}
	if s := c.Stats(); s.Rejected != 6 || s.Admitted != 1 {
		t.Fatalf("stats %+v, want 6 rejected and 1 admitted", s)
	}
}
