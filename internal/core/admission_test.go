package core

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

func TestControllerAdmitsUntilRegionFull(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	// Each task: C=1, D=4 -> contribution 0.25. The uniprocessor bound is
	// ≈0.586, so exactly two fit (0.5 in, 0.75 out).
	if !c.TryAdmit(task.Chain(1, 0, 4, 1)) {
		t.Fatal("first task rejected")
	}
	if !c.TryAdmit(task.Chain(2, 0, 4, 1)) {
		t.Fatal("second task rejected")
	}
	if c.TryAdmit(task.Chain(3, 0, 4, 1)) {
		t.Fatal("third task admitted beyond the bound")
	}
	s := c.Stats()
	if s.Admitted != 2 || s.Rejected != 1 {
		t.Fatalf("stats %+v, want 2 admitted / 1 rejected", s)
	}
}

func TestControllerDeadlineDecrement(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	c.TryAdmit(task.Chain(1, 0, 4, 1))
	c.TryAdmit(task.Chain(2, 0, 4, 1))
	if c.TryAdmit(task.Chain(3, 0, 4, 1)) {
		t.Fatal("should be full")
	}
	// After the absolute deadlines pass, contributions expire.
	sim.RunUntil(4.5)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after expiry %v, want 0", got)
	}
	later := task.Chain(4, sim.Now(), 4, 1)
	if !c.TryAdmit(later) {
		t.Fatal("task rejected after contributions expired")
	}
}

func TestControllerMultiStageDeltas(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	// Contribution (0.3, 0.1): region value f(0.3)+f(0.1) ≈ 0.364+0.106.
	if !c.TryAdmit(task.Chain(1, 0, 10, 3, 1)) {
		t.Fatal("rejected")
	}
	us := c.Utilizations()
	if math.Abs(us[0]-0.3) > 1e-12 || math.Abs(us[1]-0.1) > 1e-12 {
		t.Fatalf("utilizations %v, want [0.3 0.1]", us)
	}
}

func TestControllerRejectsNonPositiveDeadline(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	bad := &task.Task{ID: 1, Deadline: 0, Subtasks: []task.Subtask{task.NewSubtask(1)}}
	if c.TryAdmit(bad) {
		t.Fatal("zero-deadline task admitted")
	}
}

func TestControllerReservedFloorLimitsAdmission(t *testing.T) {
	sim := des.New()
	// Reserve 0.4: only ≈0.186 of synthetic utilization left on one stage.
	c := NewController(sim, NewRegion(1), []float64{0.4})
	if !c.TryAdmit(task.Chain(1, 0, 10, 1)) { // +0.1 -> 0.5, f(0.5)=0.75 < 1
		t.Fatal("small task rejected")
	}
	if c.TryAdmit(task.Chain(2, 0, 10, 1)) { // +0.1 -> 0.6 > bound 0.586
		t.Fatal("task admitted beyond reserved capacity")
	}
}

func TestControllerIdleResetRestoresCapacity(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	// The paper's §4 example: C=1, D=2 tasks, one at a time. Contribution
	// 0.5; a second concurrent task would not fit (f(1.0)=Inf). But after
	// the stage idles (task departed), the reset frees the ledger.
	if !c.TryAdmit(task.Chain(1, 0, 2, 1)) {
		t.Fatal("first rejected")
	}
	if c.TryAdmit(task.Chain(2, 0, 2, 1)) {
		t.Fatal("second admitted while first still current")
	}
	// The task finishes service at t=1; the stage goes idle.
	c.MarkDeparted(0, 1)
	c.HandleStageIdle(0)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after idle reset %v, want 0", got)
	}
	if !c.TryAdmit(task.Chain(3, 1, 2, 1)) {
		t.Fatal("task rejected after idle reset")
	}
}

func TestControllerReleaseHookFires(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	releases := 0
	c.OnRelease(func(des.Time) { releases++ })
	c.TryAdmit(task.Chain(1, 0, 2, 1))
	c.MarkDeparted(0, 1)
	c.HandleStageIdle(0) // release #1 (idle reset)
	sim.RunUntil(3)      // release #2 fires at the deadline even though ledger empty
	if releases != 2 {
		t.Fatalf("release hook fired %d times, want 2", releases)
	}
}

func TestControllerIdleWithNothingDepartedNoHook(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	releases := 0
	c.OnRelease(func(des.Time) { releases++ })
	c.HandleStageIdle(0)
	if releases != 0 {
		t.Fatal("idle reset with nothing to drop must not fire the release hook")
	}
}

func TestApproximateEstimator(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	c.SetEstimator(MeanDemand([]float64{1, 1}))
	// Actual demands are huge, but the controller only sees the means.
	big := task.Chain(1, 0, 10, 50, 50)
	if !c.TryAdmit(big) {
		t.Fatal("approximate admission should use the mean, not the actual")
	}
	us := c.Utilizations()
	if math.Abs(us[0]-0.1) > 1e-12 || math.Abs(us[1]-0.1) > 1e-12 {
		t.Fatalf("utilizations %v, want mean-based [0.1 0.1]", us)
	}
}

func TestControllerONIndependenceOfTaskCount(t *testing.T) {
	// The admission decision must not scan active tasks: admitting task
	// 10_000 costs the same ledger reads as admitting task 1. We check
	// semantics here (cost is benchmarked in bench_test.go): utilization
	// reflects thousands of tasks yet WouldAdmit still evaluates.
	sim := des.New()
	c := NewController(sim, NewRegion(4), nil)
	n := 0
	for i := 0; ; i++ {
		tk := task.Chain(task.ID(i), 0, 1e6, 1, 1, 1, 1)
		if !c.TryAdmit(tk) {
			break
		}
		n++
	}
	if n < 1000 {
		t.Fatalf("expected thousands of tiny admissions, got %d", n)
	}
	if c.WouldAdmit(task.Chain(task.ID(n+1), 0, 1e6, 1e5, 1e5, 1e5, 1e5)) {
		t.Fatal("must reject a task that would leave the region")
	}
}

func TestWaitQueueImmediateAdmission(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	var admitted []*task.Task
	w := NewWaitQueue(sim, c, 0.2, func(tk *task.Task) { admitted = append(admitted, tk) })
	w.Submit(task.Chain(1, 0, 2, 1))
	if len(admitted) != 1 || w.Stats().AdmittedImmediately != 1 {
		t.Fatalf("immediate admission failed: %+v", w.Stats())
	}
}

func TestWaitQueueAdmitsAfterRelease(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	var admitted []*task.Task
	w := NewWaitQueue(sim, c, 1.0, func(tk *task.Task) { admitted = append(admitted, tk) })

	sim.At(0, func() {
		w.Submit(task.Chain(1, 0, 2, 0.8)) // fills the stage (0.4)
		w.Submit(task.Chain(2, 0, 2, 0.8)) // 0.8 total: outside, must wait
	})
	if got := len(w.pending); got != 0 {
		t.Fatalf("pending before run = %d", got)
	}
	// Simulate the first task departing and the stage idling at t=0.6.
	sim.At(0.6, func() {
		c.MarkDeparted(0, 1)
		c.HandleStageIdle(0)
	})
	sim.RunUntil(3)
	if len(admitted) != 2 {
		t.Fatalf("admitted %d tasks, want 2", len(admitted))
	}
	st := w.Stats()
	if st.AdmittedAfterWait != 1 || st.TimedOut != 0 {
		t.Fatalf("stats %+v, want one late admission", st)
	}
	// The late admission must carry the shortened effective deadline.
	late := admitted[1]
	if late.Arrival != 0.6 || math.Abs(late.Deadline-1.4) > 1e-12 {
		t.Fatalf("late task arrival/deadline = %v/%v, want 0.6/1.4", late.Arrival, late.Deadline)
	}
}

// TestWaitQueueRetriesWhenScaleRelaxes: a task held because a stage's
// scale inflates its demand is admitted as soon as the scale falls, as
// it is when SetRegionInputs relaxes the bound.
func TestWaitQueueRetriesWhenScaleRelaxes(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	c.SetStageScale(0, 4)
	var admitted []*task.Task
	w := NewWaitQueue(sim, c, 1.0, func(tk *task.Task) { admitted = append(admitted, tk) })
	w.Submit(task.Chain(1, 0, 10, 2)) // 4·0.2 = 0.8 > 0.586: held
	if len(admitted) != 0 {
		t.Fatal("task admitted under scale 4")
	}
	c.SetStageScale(0, 1)
	if len(admitted) != 1 || w.Stats().AdmittedAfterWait != 1 {
		t.Fatalf("after the scale fell: admitted %d, stats %+v; want the held task admitted", len(admitted), w.Stats())
	}
}

func TestWaitQueueTimeout(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	var admitted []*task.Task
	w := NewWaitQueue(sim, c, 0.2, func(tk *task.Task) { admitted = append(admitted, tk) })
	sim.At(0, func() {
		w.Submit(task.Chain(1, 0, 2, 1))
		w.Submit(task.Chain(2, 0, 2, 1)) // waits, nothing releases
	})
	sim.RunUntil(0.5)
	st := w.Stats()
	if st.TimedOut != 1 || len(admitted) != 1 {
		t.Fatalf("stats %+v admitted=%d, want timeout of the second task", st, len(admitted))
	}
	if len(w.pending) != 0 {
		t.Fatalf("pending = %d after timeout, want 0", len(w.pending))
	}
}

func TestWaitQueueZeroMaxWaitRejectsImmediately(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	w := NewWaitQueue(sim, c, 0, func(*task.Task) {})
	w.Submit(task.Chain(1, 0, 2, 1))
	w.Submit(task.Chain(2, 0, 2, 1))
	if got := w.Stats().TimedOut; got != 1 {
		t.Fatalf("TimedOut = %d, want 1", got)
	}
}

func TestGraphControllerAdmission(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 4, 1, nil)
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(1))
	n2 := g.AddNode(1, task.NewSubtask(2))
	n3 := g.AddNode(2, task.NewSubtask(2))
	n4 := g.AddNode(3, task.NewSubtask(1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)

	mk := func(id task.ID, at float64) *task.Task {
		return &task.Task{ID: id, Arrival: at, Deadline: 10, Graph: g}
	}
	admitted := 0
	for i := 0; i < 20; i++ {
		if c.TryAdmit(mk(task.ID(i), 0)) {
			admitted++
		}
	}
	if admitted == 0 || admitted == 20 {
		t.Fatalf("admitted %d of 20; expected partial admission", admitted)
	}
	// The critical path is 0-1-3 (or 0-2-3): per admitted task the path
	// utilization contribution is (0.1, 0.2, 0.1); region must hold.
	utils := c.Utilizations()
	if !GraphFeasible(g, utils, nil, 1) {
		t.Fatal("admitted point violates the task's own region")
	}
	sim.RunUntil(11)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after expiry = %v, want 0", got)
	}
}

func TestGraphControllerRejectsUnknownResource(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	g := task.NewGraph()
	g.AddNode(5, task.NewSubtask(1)) // resource out of range
	if c.TryAdmit(&task.Task{ID: 1, Deadline: 10, Graph: g}) {
		t.Fatal("task on unknown resource admitted")
	}
}

func TestGraphControllerChecksActiveShapes(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	// Shape A: chain over both resources — the tighter condition.
	a := chainGraph(3, 3)
	// Shape B: single node on resource 0 only.
	b := task.NewGraph()
	b.AddNode(0, task.NewSubtask(1))

	if !c.TryAdmit(&task.Task{ID: 1, Deadline: 10, Graph: a}) {
		t.Fatal("first chain task rejected")
	}
	// Admitting B tasks must stay limited by shape A's condition
	// (f(U0)+f(U1) ≤ 1), not just B's own (f(U0) ≤ 1): with U1 = 0.3
	// fixed, U0 may grow to ~0.45, i.e. exactly one B (0.3 -> 0.4).
	admitted := 0
	for i := 2; i < 30; i++ {
		if c.TryAdmit(&task.Task{ID: task.ID(i), Deadline: 10, Graph: b}) {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("admitted %d B tasks, want exactly 1 under shape A's condition", admitted)
	}
	utils := c.Utilizations()
	if !GraphFeasible(a, utils, nil, 1) {
		t.Fatalf("active chain task's condition violated at %v", utils)
	}
}

func TestGraphControllerIdleReset(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	g := task.NewGraph()
	g.AddNode(0, task.NewSubtask(1))
	c.TryAdmit(&task.Task{ID: 1, Deadline: 2, Graph: g})
	c.MarkDeparted(0, 1)
	c.HandleResourceIdle(0)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after idle reset = %v, want 0", got)
	}
}

func TestGraphWaitQueueAdmitsAfterRelease(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	g := chainGraph(1)
	mk := func(id task.ID, at, d, demand float64) *task.Task {
		gg := chainGraph(demand)
		return &task.Task{ID: id, Arrival: at, Deadline: d, Graph: gg}
	}
	_ = g
	var admitted []*task.Task
	w := NewGraphWaitQueue(sim, c, 3, func(tk *task.Task) { admitted = append(admitted, tk) })
	sim.At(0, func() {
		w.Submit(mk(1, 0, 2, 0.7))  // 0.35: admitted
		w.Submit(mk(2, 0, 10, 2.5)) // 0.25 -> f(0.6) > 1: waits
	})
	// Task 1's deadline decrement at t=2 frees capacity.
	sim.RunUntil(6)
	if len(admitted) != 2 {
		t.Fatalf("admitted %d DAG tasks, want 2 (second after release)", len(admitted))
	}
	st := w.Stats()
	if st.AdmittedImmediately != 1 || st.AdmittedAfterWait != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestGraphWaitQueueTimeout(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	mk := func(id task.ID, d, demand float64) *task.Task {
		return &task.Task{ID: id, Deadline: d, Graph: chainGraph(demand)}
	}
	var admitted int
	w := NewGraphWaitQueue(sim, c, 0.5, func(*task.Task) { admitted++ })
	sim.At(0, func() {
		w.Submit(mk(1, 10, 5)) // 0.5
		w.Submit(mk(2, 10, 5)) // would be 1.0: waits, nothing releases soon
	})
	sim.RunUntil(1)
	if w.Stats().TimedOut != 1 || admitted != 1 {
		t.Fatalf("stats %+v admitted=%d", w.Stats(), admitted)
	}
}

// TestWaitQueueRegionInvariantQuick: under arbitrary submit/release
// interleavings through the wait queue, the controller's utilization
// point never leaves the region.
func TestWaitQueueRegionInvariantQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		sim := des.New()
		r := NewRegion(1)
		c := NewController(sim, r, nil)
		w := NewWaitQueue(sim, c, 2, func(*task.Task) {})
		ok := true
		check := func() {
			if c.Value() > r.Bound()+1e-9 {
				ok = false
			}
		}
		c.OnRelease(func(des.Time) { check() })
		at := 0.0
		for i := 0; i+1 < len(raw); i += 2 {
			at += float64(raw[i]%8) / 4
			d := float64(raw[i+1]%10) + 0.5
			demand := float64(raw[i]%5) / 2
			id := task.ID(i)
			releaseAt := at
			sim.At(releaseAt, func() {
				w.Submit(task.Chain(id, releaseAt, d, demand))
				check()
			})
		}
		sim.Run()
		check()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMalformedTasksRejected checks every admit path rejects a task
// that would charge a negative or non-finite contribution, or whose
// deadline is not positive and finite: it counts as rejected and charges
// nothing. Charged, a negative demand would create capacity, and an
// infinite deadline would charge nothing while parking its expiry at
// +Inf, where draining the simulator would take the clock. On the
// quality path an optional demand outside [0, Demand] is malformed too:
// below full quality it makes the demand negative.
func TestMalformedTasksRejected(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	withOptional := func(tk *task.Task, opt ...float64) *task.Task {
		for j, o := range opt {
			tk.Subtasks[j].Optional = o
		}
		return tk
	}
	bad := []*task.Task{
		task.Chain(1, 0, 10, -4, 0.1),
		task.Chain(2, 0, inf, 1, 1),
		task.Chain(3, 0, nan, 1, 1),
		task.Chain(4, 0, 10, nan, 1),
		task.Chain(5, 0, 10, 1, inf),
	}
	badOptional := []*task.Task{
		withOptional(task.Chain(7, 0, 10, 1, 1), 0, 2),
		withOptional(task.Chain(8, 0, 10, 1, 1), -0.5, 0),
		withOptional(task.Chain(9, 0, 10, 1, 1), nan, 0),
	}
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	for _, tk := range bad {
		if c.WouldAdmit(tk) {
			t.Errorf("task %d: WouldAdmit accepted it", tk.ID)
		}
		if c.TryAdmit(tk) {
			t.Errorf("task %d: TryAdmit admitted it", tk.ID)
		}
		if _, ok := c.TryAdmitQuality(tk, task.QualityLevels); ok {
			t.Errorf("task %d: TryAdmitQuality admitted it", tk.ID)
		}
	}
	for _, tk := range badOptional {
		if _, ok := c.TryAdmitQuality(tk, task.QualityLevels); ok {
			t.Errorf("task %d: TryAdmitQuality admitted it", tk.ID)
		}
	}
	if s, want := c.Stats(), uint64(2*len(bad)+len(badOptional)); s.Rejected != want || s.Admitted != 0 {
		t.Fatalf("stats %+v, want %d rejected and none admitted", s, want)
	}
	for j, u := range c.Utilizations() {
		if u != 0 {
			t.Fatalf("stage %d charged %v by rejected tasks", j, u)
		}
	}
	if !c.TryAdmit(task.Chain(6, 0, 8, 1, 1)) {
		t.Fatal("well-formed task rejected")
	}
	// Degrading an admitted task through a malformed copy charges
	// nothing: an optional demand above the full one, or an infinite
	// demand, whose ratio of levels is NaN.
	before := c.Utilizations()
	if _, ok := c.Degrade(withOptional(task.Chain(6, 0, 8, 1, 1), 0, 2), 0); ok {
		t.Error("Degrade applied a malformed optional demand")
	}
	c.Degrade(withOptional(task.Chain(6, 0, 8, inf, 1), 1, 0), 0)
	if got := c.Utilizations(); got[0] != before[0] || got[1] != before[1] {
		t.Errorf("Degrade moved utilizations %v -> %v", before, got)
	}
	sim.Run()
	if now := sim.Now(); now != 8 {
		t.Fatalf("simulator drained to %v, want the admitted task's deadline 8", now)
	}

	// In a full region the quality search falls to the lower levels,
	// where an optional demand above the full one is negative.
	sim = des.New()
	c = NewController(sim, NewRegion(2), nil)
	for id := task.ID(1); c.TryAdmit(task.Chain(id, 0, 10, 2, 2)); id++ {
	}
	full := c.Utilizations()
	if _, ok := c.TryAdmitQuality(withOptional(task.Chain(100, 0, 10, 1, 1), 0, 3), task.QualityLevels); ok {
		t.Error("TryAdmitQuality admitted an optional demand above the full demand")
	}
	if got := c.Utilizations(); got[0] != full[0] || got[1] != full[1] {
		t.Fatalf("rejected task moved utilizations %v -> %v", full, got)
	}
	sim.Run()
	for j, u := range c.Utilizations() {
		if u != 0 {
			t.Fatalf("stage %d reads %v after every task expired", j, u)
		}
	}
}
