package online

import (
	"math"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/task"
)

// These tests pin the data plane's capacity bookkeeping from the charge
// side: every path that frees or refuses capacity is checked against the
// region value Σ_j f(U_j) and the counters it must move.

func TestTryAdmitValueUntilFull(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Each request: 1s of work within 4s -> contribution 0.25.
	if ok, _ := c.TryAdmitValue(req(1, 4*time.Second, time.Second)); !ok {
		t.Fatal("first rejected")
	}
	if ok, _ := c.TryAdmitValue(req(2, 4*time.Second, time.Second)); !ok {
		t.Fatal("second rejected")
	}
	if ok, _ := c.TryAdmitValue(req(3, 4*time.Second, time.Second)); ok {
		t.Fatal("third admitted beyond the bound")
	}
	s := c.Stats()
	if s.Admitted != 2 || s.Rejected != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestExpiryFreesCapacity(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Each: 0.25 utilization. Two fit (f(0.5)=0.75 ≤ 1); a third does not
	// (f(0.75) > 1) until the first two expire.
	if !c.TryAdmit(req(1, 2*time.Second, 500*time.Millisecond)) {
		t.Fatal("first admit rejected")
	}
	if !c.TryAdmit(req(2, 2*time.Second, 500*time.Millisecond)) {
		t.Fatal("second admit rejected")
	}
	if c.TryAdmit(req(3, 2*time.Second, 500*time.Millisecond)) {
		t.Fatal("over-admitted")
	}
	clk.Advance(3 * time.Second) // both deadlines pass
	if !c.TryAdmit(req(3, 2*time.Second, 500*time.Millisecond)) {
		t.Fatal("expiry did not free capacity")
	}
	if s := c.Stats(); s.Expired != 2 {
		t.Fatalf("expired = %d, want 2; stats %+v", s.Expired, s)
	}
}

func TestReleaseFreesCapacity(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	if !c.TryAdmit(req(7, 2*time.Second, 500*time.Millisecond, 500*time.Millisecond)) {
		t.Fatal("admit rejected")
	}
	if before, _ := c.RegionValue(); before <= 0 {
		t.Fatalf("charge not recorded: value %v", before)
	}
	c.Release(7)
	if after, _ := c.RegionValue(); after > 1e-12 {
		t.Fatalf("release left residual value %v", after)
	}
	c.Release(7) // double release is a no-op
	if v, _ := c.RegionValue(); v < -1e-12 {
		t.Fatalf("double release went negative: %v", v)
	}
}

func TestInvalidRequestsCounted(t *testing.T) {
	c := New(core.NewRegion(2), nil, nil)
	bad := []Request{
		{ID: 1, Deadline: 0, Demands: []time.Duration{1, 1}},
		{ID: 2, Deadline: time.Second, Demands: []time.Duration{1}},
		{ID: ^uint64(0), Deadline: time.Second, Demands: []time.Duration{1, 1}},
	}
	for i, r := range bad {
		if c.TryAdmit(r) {
			t.Fatalf("invalid request %d admitted", i)
		}
	}
	if s := c.Stats(); s.Rejected != uint64(len(bad)) {
		t.Fatalf("rejected = %d, want %d", s.Rejected, len(bad))
	}
}

func TestStageIdleFreesDepartedOnly(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	for i := uint64(1); i <= 8; i++ {
		if !c.TryAdmit(req(i, time.Hour, 10*time.Millisecond, 10*time.Millisecond)) {
			t.Fatalf("admit %d rejected", i)
		}
	}
	// A departure alone only marks eligibility; the idle reset frees it.
	c.MarkDeparted(0, 3)
	if u0, u1 := c.StageUtilization(0), c.StageUtilization(1); u0 != u1 {
		t.Fatalf("departure freed capacity before idle reset: %v vs %v", u0, u1)
	}
	c.StageIdle(0)
	u0, u1 := c.StageUtilization(0), c.StageUtilization(1)
	if math.Abs(u0-u1*7/8) > 1e-12 {
		t.Fatalf("idle reset freed %v, want 7/8 of %v (one of 8 departed)", u0, u1)
	}
	if s := c.Stats(); s.IdleResets == 0 {
		t.Fatalf("no idle reset counted: %+v", s)
	}
}

func TestQualityDegradesInsideRegion(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Full demand 0.4 (0.3 of it optional): the first fits at full
	// quality (f(0.4) ≈ 0.53), a second full-quality copy would need
	// f(0.8) > 1, but its mandatory-only demand (0.1) still fits.
	mk := func(id uint64) Request {
		return Request{
			ID:       id,
			Deadline: 10 * time.Second,
			Demands:  []time.Duration{4 * time.Second},
			Optional: []time.Duration{3 * time.Second},
		}
	}
	lv, ok := c.TryAdmitQuality(mk(1), task.QualityLevels)
	if !ok || lv != task.QualityLevels {
		t.Fatalf("first admit: level %d ok %v", lv, ok)
	}
	lv2, ok := c.TryAdmitQuality(mk(2), task.QualityLevels)
	if !ok {
		t.Fatalf("second request rejected outright (stats %+v)", c.Stats())
	}
	if lv2 >= task.QualityLevels {
		t.Fatalf("second request admitted at full quality %d; expected degraded", lv2)
	}
	if got, present := c.QualityOf(2); !present || got != lv2 {
		t.Fatalf("QualityOf(2) = %d,%v want %d,true", got, present, lv2)
	}
	if s := c.Stats(); s.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", s.Degraded)
	}
	if v, b := c.RegionValue(); v > b+1e-9 {
		t.Fatalf("degraded admit left the region: %v > %v", v, b)
	}
}

func TestScaleAndRegionMoves(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	c.SetStageScale(0, 4.0)
	// Raw demand 0.1, scaled to 0.4: the first charges 0.4; the second
	// tests at 0.4+0.4=0.8 → f(0.8) > 1, rejected. After the scale
	// relaxes it tests at 0.4+0.1=0.5 → f(0.5) ≤ 1, admitted.
	if !c.TryAdmit(req(1, 8*time.Second, 800*time.Millisecond)) {
		t.Fatal("first rejected under scale")
	}
	if c.TryAdmit(req(2, 8*time.Second, 800*time.Millisecond)) {
		t.Fatal("second admitted despite 4x scale")
	}
	c.SetStageScale(0, 1.0)
	if !c.TryAdmit(req(2, 8*time.Second, 800*time.Millisecond)) {
		t.Fatal("second rejected after scale relaxed")
	}
	// Shrink the region: admits must stop sooner.
	c.SetRegionInputs(0.2, nil)
	if c.TryAdmit(req(3, 8*time.Second, 800*time.Millisecond)) {
		t.Fatal("admitted past the shrunken bound")
	}
	if b := c.Bound(); math.Abs(b-0.2) > 1e-12 {
		t.Fatalf("bound = %v after SetRegionInputs", b)
	}
}
