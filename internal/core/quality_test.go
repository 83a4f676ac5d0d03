package core

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// imprecise builds a chain task with the given optional fraction.
func imprecise(id task.ID, arrival, deadline, frac float64, demands ...float64) *task.Task {
	return task.Chain(id, arrival, deadline, demands...).SetOptionalFraction(frac)
}

func TestTryAdmitQualityFullWhenRoom(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	tk := imprecise(1, 0, 4, 0.5, 1)
	level, ok := c.TryAdmitQuality(tk, task.QualityLevels)
	if !ok || level != task.QualityLevels {
		t.Fatalf("TryAdmitQuality = (%d, %v), want full quality", level, ok)
	}
	if got := c.Utilizations()[0]; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("utilization %v, want full contribution 0.25", got)
	}
	if lv, present := c.QualityOf(1); !present || lv != task.QualityLevels {
		t.Fatalf("QualityOf = (%d, %v)", lv, present)
	}
	if c.Stats().Degraded != 0 {
		t.Fatal("full-quality admit must not count as degraded")
	}
}

func TestTryAdmitQualityFallsBackToHighestFit(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	// Fill most of the region with a rigid task: contribution 0.4,
	// f(0.4) ≈ 0.533 of the 0.586 bound.
	if !c.TryAdmit(task.Chain(1, 0, 10, 4)) {
		t.Fatal("setup task rejected")
	}
	// Full contribution 0.2 does not fit; mandatory-only is 0.02.
	tk := imprecise(2, 0, 10, 0.9, 2)
	level, ok := c.TryAdmitQuality(tk, task.QualityLevels)
	if !ok {
		t.Fatal("cascade rejected a task whose mandatory part fits")
	}
	if level >= task.QualityLevels {
		t.Fatalf("level %d, expected a degraded admit", level)
	}
	// The admitted level must itself fit, and level+1 must not have fit at
	// admission time (highest feasible level).
	if lv, present := c.QualityOf(2); !present || lv != level {
		t.Fatalf("QualityOf = (%d, %v), want (%d, true)", lv, present, level)
	}
	if !c.Region().Contains(c.Utilizations()) {
		t.Fatal("degraded admit left the region")
	}
	s := c.Stats()
	if s.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", s.Degraded)
	}
	// Verify maximality: remove and readmit one level higher must fail.
	u := c.Utilizations()[0]
	want := tk.StageDemandAt(0, level) / 10
	if math.Abs(u-(0.4+want)) > 1e-9 {
		t.Fatalf("utilization %v, want %v", u, 0.4+want)
	}
	d := c.deltasAt(task.Chain(99, 0, 10, tk.StageDemandAt(0, level+1)-tk.StageDemandAt(0, level)), task.QualityLevels)
	if c.eng.Fits(d) {
		t.Fatal("one more quality step would still have fit: search not maximal")
	}
}

func TestTryAdmitQualityRejectsWhenMandatoryUnfit(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	if !c.TryAdmit(task.Chain(1, 0, 10, 5.5)) {
		t.Fatal("setup task rejected")
	}
	// Mandatory-only contribution 0.2 already breaks the bound.
	tk := imprecise(2, 0, 10, 0.5, 4)
	if _, ok := c.TryAdmitQuality(tk, task.QualityLevels); ok {
		t.Fatal("admitted a task whose mandatory demand does not fit")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Stats().Rejected)
	}
	if _, present := c.QualityOf(2); present {
		t.Fatal("rejected task must not appear in ledgers")
	}
}

func TestTryAdmitQualityHonorsCap(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	tk := imprecise(1, 0, 10, 0.5, 1)
	cap := 2
	level, ok := c.TryAdmitQuality(tk, cap)
	if !ok || level != cap {
		t.Fatalf("TryAdmitQuality under cap = (%d, %v), want (%d, true)", level, ok, cap)
	}
	if got, want := c.Utilizations()[0], tk.StageDemandAt(0, cap)/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization %v, want capped contribution %v", got, want)
	}
}

func TestTryAdmitQualityRigidTaskFallsThrough(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	if !c.TryAdmit(task.Chain(1, 0, 10, 4)) {
		t.Fatal("setup task rejected")
	}
	// No optional demand: the cascade must behave exactly like TryAdmit.
	if _, ok := c.TryAdmitQuality(task.Chain(2, 0, 10, 3), task.QualityLevels); ok {
		t.Fatal("rigid task admitted despite not fitting")
	}
	if _, ok := c.TryAdmitQuality(task.Chain(3, 0, 10, 1), task.QualityLevels); !ok {
		t.Fatal("rigid task rejected despite fitting")
	}
}

func TestDeadlineExpiryCreditsDegradedDemand(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	if !c.TryAdmit(task.Chain(1, 0, 100, 40)) {
		t.Fatal("setup task rejected")
	}
	tk := imprecise(2, 0, 10, 0.9, 2)
	level, ok := c.TryAdmitQuality(tk, task.QualityLevels)
	if !ok || level >= task.QualityLevels {
		t.Fatalf("expected degraded admit, got (%d, %v)", level, ok)
	}
	before := c.Utilizations()[0]
	sim.RunUntil(10.5)
	after := c.Utilizations()[0]
	freed := before - after
	want := tk.StageDemandAt(0, level) / 10
	if math.Abs(freed-want) > 1e-9 {
		t.Fatalf("expiry freed %v, want the degraded contribution %v", freed, want)
	}
	if _, present := c.QualityOf(2); present {
		t.Fatal("expired task still tracked")
	}
}

func TestDegradeInPlace(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	tk := imprecise(1, 0, 10, 0.5, 2)
	if _, ok := c.TryAdmitQuality(tk, task.QualityLevels); !ok {
		t.Fatal("admit failed")
	}
	before := c.Utilizations()[0]
	trimmed, ok := c.Degrade(tk, 0)
	if !ok {
		t.Fatal("Degrade refused")
	}
	after := c.Utilizations()[0]
	if math.Abs((before-after)-trimmed) > 1e-12 {
		t.Fatalf("Degrade reported %v trimmed, ledgers moved %v", trimmed, before-after)
	}
	if want := tk.Subtasks[0].Optional / 10; math.Abs(trimmed-want) > 1e-12 {
		t.Fatalf("trimmed %v, want the full optional contribution %v", trimmed, want)
	}
	if lv, _ := c.QualityOf(1); lv != 0 {
		t.Fatalf("level after degrade = %d, want 0", lv)
	}
	if c.Stats().Trims != 1 {
		t.Fatalf("Trims = %d, want 1", c.Stats().Trims)
	}
	// Degrading further, raising, or degrading an unknown task: no-ops.
	if _, ok := c.Degrade(tk, 0); ok {
		t.Fatal("re-degrading to the same level must be a no-op")
	}
	if _, ok := c.Degrade(tk, task.QualityLevels); ok {
		t.Fatal("Degrade must never raise quality")
	}
	if _, ok := c.Degrade(imprecise(99, 0, 10, 0.5, 1), 0); ok {
		t.Fatal("degrading an unadmitted task must fail")
	}
}

func TestDegradeFreesRoomForAdmission(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	a := imprecise(1, 0, 10, 0.8, 3)
	b := imprecise(2, 0, 10, 0.8, 3)
	if _, ok := c.TryAdmitQuality(a, task.QualityLevels); !ok {
		t.Fatal("a rejected")
	}
	if _, ok := c.TryAdmitQuality(b, task.QualityLevels); !ok {
		t.Fatal("b rejected")
	}
	rigid := task.Chain(3, 0, 10, 2.5)
	if c.WouldAdmit(rigid) {
		t.Fatal("rigid should not fit yet")
	}
	c.Degrade(a, 0)
	c.Degrade(b, 0)
	if !c.WouldAdmit(rigid) {
		t.Fatal("trimming both tasks to mandatory should have made room")
	}
}

func TestPlanDegradationTrimsBeforeEvicting(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	low := imprecise(1, 0, 10, 0.8, 3)
	low.Importance = 1
	high := imprecise(2, 0, 10, 0.8, 3)
	high.Importance = 5
	if _, ok := c.TryAdmitQuality(low, task.QualityLevels); !ok {
		t.Fatal("low rejected")
	}
	if _, ok := c.TryAdmitQuality(high, task.QualityLevels); !ok {
		t.Fatal("high rejected")
	}
	// Arrival whose mandatory part fits once one victim is trimmed.
	arrival := imprecise(3, 0, 10, 0.5, 2)
	victims := []*task.Task{low, high}
	task.OrderVictims(victims)
	plan, ok := c.PlanDegradation(arrival, victims)
	if !ok {
		t.Fatal("PlanDegradation found no plan")
	}
	if len(plan.Evict) != 0 {
		t.Fatalf("plan evicts %v although trimming suffices", plan.Evict)
	}
	if len(plan.Trim) == 0 || plan.Trim[0] != low.ID {
		t.Fatalf("plan.Trim = %v, want least-important task %d first", plan.Trim, low.ID)
	}
	// Applying the plan makes the arrival admissible at mandatory-only.
	for _, id := range plan.Trim {
		v := low
		if id == high.ID {
			v = high
		}
		if _, ok := c.Degrade(v, 0); !ok {
			t.Fatalf("applying trim for %d failed", id)
		}
	}
	if !c.eng.Fits(c.deltasAt(arrival, 0)) {
		t.Fatal("arrival still unfit after applying the plan")
	}
}

func TestPlanDegradationEscalatesToEviction(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	// Victims with little optional demand: trimming cannot make room.
	low := imprecise(1, 0, 10, 0.05, 3)
	low.Importance = 1
	high := imprecise(2, 0, 10, 0.05, 3)
	high.Importance = 5
	if _, ok := c.TryAdmitQuality(low, task.QualityLevels); !ok {
		t.Fatal("low rejected")
	}
	if _, ok := c.TryAdmitQuality(high, task.QualityLevels); !ok {
		t.Fatal("high rejected")
	}
	arrival := task.Chain(3, 0, 10, 3)
	victims := []*task.Task{low, high}
	task.OrderVictims(victims)
	plan, ok := c.PlanDegradation(arrival, victims)
	if !ok {
		t.Fatal("PlanDegradation found no plan")
	}
	if len(plan.Evict) == 0 {
		t.Fatal("plan should escalate to eviction")
	}
	if plan.Evict[0] != low.ID {
		t.Fatalf("evicts %v first, want least-important %d", plan.Evict[0], low.ID)
	}
	for _, id := range plan.Evict {
		if id == high.ID {
			t.Fatal("evicted the important task although the unimportant one sufficed")
		}
	}
	// Evicted tasks must not also appear in Trim.
	for _, id := range plan.Trim {
		if id == plan.Evict[0] {
			t.Fatal("evicted task still in trim list")
		}
	}
}

func TestPlanDegradationNoRoomAtAll(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), []float64{0.5})
	// The reserved floor alone almost fills the bound; a huge arrival can
	// never fit no matter what is shed.
	arrival := task.Chain(1, 0, 10, 20)
	if _, ok := c.PlanDegradation(arrival, nil); ok {
		t.Fatal("planned room that does not exist")
	}
}

func TestPlanDegradationAlreadyFits(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	plan, ok := c.PlanDegradation(imprecise(1, 0, 10, 0.5, 1), nil)
	if !ok || len(plan.Trim) != 0 || len(plan.Evict) != 0 {
		t.Fatalf("plan = %+v ok=%v, want empty plan / true", plan, ok)
	}
}

func TestQualityCascadeWithMeanEstimator(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	c.SetEstimator(MeanDemand([]float64{4}))
	if !c.TryAdmit(task.Chain(1, 0, 10, 4)) {
		t.Fatal("setup rejected")
	}
	// Approximate admission scales the mean by the degraded/full ratio.
	tk := imprecise(2, 0, 10, 0.9, 2)
	level, ok := c.TryAdmitQuality(tk, task.QualityLevels)
	if !ok || level >= task.QualityLevels {
		t.Fatalf("expected degraded admit under mean estimator, got (%d, %v)", level, ok)
	}
	want := 0.4 + (4.0*tk.StageDemandAt(0, level)/2.0)/10
	if got := c.Utilizations()[0]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("utilization %v, want scaled mean %v", got, want)
	}
}

// TestQualityAdmitZeroAlloc guards the acceptance criterion directly at
// the core layer: the fallback (binary search) admission path must not
// allocate once the controller's scratch buffer exists.
func TestQualityAdmitZeroAlloc(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	if !c.TryAdmit(task.Chain(1, 0, 1000, 350, 350)) {
		t.Fatal("setup rejected")
	}
	tk := imprecise(2, 0, 10, 0.9, 2, 2)
	probe := func() {
		// deltasAt + eng.Fits + binary search, no commit.
		d := c.deltasAt(tk, task.QualityLevels)
		if c.eng.Fits(d) {
			t.Fatal("probe task unexpectedly fits at full quality")
		}
		lo, hi := 0, task.QualityLevels-1
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if c.eng.Fits(c.deltasAt(tk, mid)) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
	}
	probe() // warm the scratch buffer
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("degraded admission test allocates %v allocs/op, want 0", allocs)
	}
}
