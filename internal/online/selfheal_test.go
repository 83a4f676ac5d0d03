package online

import (
	"math"
	"testing"
	"time"

	"feasregion/internal/core"
)

// TestOnlineClockRegression steps the wall clock backwards and checks
// the monotone purge clock keeps expiry moving: a regression is counted,
// never stalls a deadline decrement, and admissions made while the clock
// is behind still expire on the monotone timeline.
func TestOnlineClockRegression(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(1, 2*time.Second, 600*time.Millisecond)) {
		t.Fatal("first rejected")
	}
	clk.Advance(2100 * time.Millisecond)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after expiry %v, want 0", got)
	}
	// NTP-style step back by 1.5s. The monotone view must hold at the
	// high-water mark.
	clk.Advance(-1500 * time.Millisecond)
	if !c.TryAdmit(req(2, time.Second, 300*time.Millisecond)) {
		t.Fatal("admission rejected during clock regression")
	}
	s := c.Stats()
	if s.ClockRegressions == 0 {
		t.Fatal("backwards clock step was not counted")
	}
	if s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}
	// The new contribution's deadline was anchored at the monotone now,
	// so it expires 1s after the high-water mark, not 1s after the
	// regressed clock. Advancing the real clock 1.5s+1s+ε clears it.
	clk.Advance(2600 * time.Millisecond)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after monotone expiry %v, want 0", got)
	}
	if got := c.Stats().Expired; got != 2 {
		t.Fatalf("Expired = %d, want 2", got)
	}
}

// skewedClock wraps a wall clock with a deterministic sawtooth drift of
// the given amplitude and period: the returned clock runs ahead, falls
// behind, and even steps backwards across the sawtooth reset — the
// adversary for the online controller's lazy expiry, which must stay
// monotone under it. The drift is anchored at the first call.
func skewedClock(base func() time.Time, amplitude, period time.Duration) func() time.Time {
	var anchor time.Time
	return func() time.Time {
		now := base()
		if anchor.IsZero() {
			anchor = now
		}
		phase := math.Mod(now.Sub(anchor).Seconds(), period.Seconds()) / period.Seconds()
		// Sawtooth in [-1, 1): ramps up, then snaps back (a step change,
		// like an NTP correction).
		saw := 2*phase - 1
		return now.Add(time.Duration(saw * float64(amplitude)))
	}
}

// TestOnlineUnderSkewedClock drives the controller with a sawtooth
// clock — drifting, and stepping backwards at every period reset — and
// checks accounting survives: regressions are observed, every admitted
// contribution eventually expires, and utilization returns to zero.
func TestOnlineUnderSkewedClock(t *testing.T) {
	clk := newFakeClock()
	skewed := skewedClock(clk.Now, 80*time.Millisecond, 300*time.Millisecond)
	c := New(core.NewRegion(1), nil, Clock(skewed))
	admitted := 0
	for i := 0; i < 200; i++ {
		if c.TryAdmit(req(uint64(i+1), 100*time.Millisecond, 10*time.Millisecond)) {
			admitted++
		}
		clk.Advance(10 * time.Millisecond)
		c.Utilizations() // purge opportunity under the skewed clock
	}
	clk.Advance(time.Second)
	if got := c.Utilizations()[0]; math.Abs(got) > 1e-12 {
		t.Fatalf("utilization %v after all deadlines passed, want 0", got)
	}
	s := c.Stats()
	if admitted == 0 || s.Admitted != uint64(admitted) {
		t.Fatalf("admitted %d, stats %+v", admitted, s)
	}
	if s.ClockRegressions == 0 {
		t.Fatal("sawtooth clock never registered a regression")
	}
	if s.Expired != uint64(admitted) {
		t.Fatalf("Expired = %d, want %d (every admission must expire exactly once)", s.Expired, admitted)
	}
}

// TestOnlineStageScale checks degraded-stage demand scaling tightens
// admission: a request that fits at nominal speed is rejected when the
// stage is marked degraded, and fits again after recovery.
func TestOnlineStageScale(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// 1.5s of work within 4s → contribution 0.375 ≤ 0.5 bound at scale 1,
	// 0.75 > 0.5 at scale 2.
	c.SetStageScale(0, 2)
	if c.TryAdmit(req(1, 4*time.Second, 1500*time.Millisecond)) {
		t.Fatal("admitted against a degraded stage at nominal demand")
	}
	c.SetStageScale(0, 1)
	if !c.TryAdmit(req(2, 4*time.Second, 1500*time.Millisecond)) {
		t.Fatal("rejected after the stage recovered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale must panic")
		}
	}()
	c.SetStageScale(0, 0)
}

// TestOnlineIdleResetCounted checks the IdleResets counter tracks only
// resets that freed a contribution.
func TestOnlineIdleResetCounted(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	c.StageIdle(0) // nothing to free
	if got := c.Stats().IdleResets; got != 0 {
		t.Fatalf("IdleResets = %d after vacuous reset, want 0", got)
	}
	c.TryAdmit(req(1, 4*time.Second, time.Second))
	c.MarkDeparted(0, 1)
	c.StageIdle(0)
	if got := c.Stats().IdleResets; got != 1 {
		t.Fatalf("IdleResets = %d, want 1", got)
	}
}

// TestOnlineWatchdog runs the background reconciler and checks it
// purges a past-deadline contribution without any explicit call,
// counting its passes; stop is idempotent.
func TestOnlineWatchdog(t *testing.T) {
	c := New(core.NewRegion(1), nil, nil) // real clock
	if !c.TryAdmit(req(7, 5*time.Millisecond, time.Millisecond)) {
		t.Fatal("admit rejected")
	}

	stop := c.StartWatchdog(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never purged the past-deadline contribution")
		}
		time.Sleep(time.Millisecond)
	}
	first := c.Stats().Reconciles
	for c.Stats().Reconciles == first {
		if time.Now().After(deadline) {
			t.Fatal("watchdog stopped counting reconcile passes")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization %v after watchdog purge, want 0", got)
	}
	if first == 0 {
		t.Fatal("watchdog purged without counting a reconcile pass")
	}
}
