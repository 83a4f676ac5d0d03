package online

import (
	"math"
	"testing"
	"time"

	"feasregion/internal/core"
)

// TestOnlineGateRejectsWithoutLock checks that once a locked reject has
// armed the overload gate, repeat rejects are decided by the gate, and
// that freeing capacity disarms it.
func TestOnlineGateRejectsWithoutLock(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	var id uint64
	for {
		id++
		if !c.TryAdmit(req(id, time.Hour, 90*time.Second)) {
			break // first true reject arms the gate
		}
	}
	before := c.Stats()
	for i := 0; i < 10; i++ {
		id++
		if c.TryAdmit(req(id, time.Hour, 90*time.Second)) {
			t.Fatal("admitted after the region filled")
		}
	}
	if after := c.Stats(); after.GateRejects != before.GateRejects+10 {
		t.Fatalf("gate rejects %d → %d over 10 repeat rejects; gate never engaged",
			before.GateRejects, after.GateRejects)
	}
	// Freeing capacity must disarm the gate.
	c.Release(1)
	id++
	if !c.TryAdmit(req(id, time.Hour, 90*time.Second)) {
		t.Fatal("gate stayed armed after a release freed capacity")
	}
}

// TestAdmitValueMatchesRegionValue pins the fused publish: the region
// value an admit hands back (TryAdmitValue) equals, bit for bit, what a
// RegionValue call right after it reads, because it is computed inside
// the admit's own critical section. The clock stands still across each
// admit and its check and moves between them, so rows expire and staged
// entries drain along the way; reserved floors and stage scales other
// than 1 are in force. With nothing released, nextExp after that purge
// must equal the wheel's NextFlush: a commit's staged entry lowers it to
// the same bucket end the wheel reports once the entry is filed.
func TestAdmitValueMatchesRegionValue(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(3), []float64{0.05, 0.1, 0}, clk.Now)
	c.SetStageScale(0, 1.5)
	c.SetStageScale(2, 0.75)
	admitted := 0
	for id := uint64(1); id <= 3000; id++ {
		r := req(id, time.Duration(5+id%40)*time.Millisecond,
			time.Duration(id%7)*50*time.Microsecond, time.Duration(id%5)*80*time.Microsecond, 120*time.Microsecond)
		value := math.NaN()
		if !c.admit(&r, &value) {
			if !math.IsNaN(value) {
				t.Fatalf("id %d: a reject wrote value %v", id, value)
			}
		} else {
			admitted++
			if got, _ := c.RegionValue(); math.Float64bits(got) != math.Float64bits(value) {
				t.Fatalf("id %d: admit value %v, RegionValue %v", id, value, got)
			}
		}
		want, ok := c.whl.NextFlush()
		if !ok {
			want = math.MaxInt64
		}
		if got := c.nextExp.Load(); got != want {
			t.Fatalf("id %d: nextExp %d, wheel NextFlush %d", id, got, want)
		}
		clk.Advance(time.Duration(id%3) * 300 * time.Microsecond)
	}
	if st := c.Stats(); admitted == 0 || st.Rejected == 0 || st.Expired == 0 {
		t.Fatalf("the run did not exercise admits, rejects and expiries: %+v", st)
	}
}

// TestReleaseAndIdleValueMatchRegionValue pins the same fused publish
// for Release and StageIdle: the value each returns equals, bit for
// bit, what a RegionValue call right after it reads. Requests are
// admitted, some depart a stage and some are released while the clock
// moves, so the releases, idle resets and their purges all change the
// value.
func TestReleaseAndIdleValueMatchRegionValue(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(3), []float64{0.05, 0.1, 0}, clk.Now)
	check := func(op string, id uint64, v float64) {
		t.Helper()
		if got, _ := c.RegionValue(); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("id %d: %s value %v, RegionValue %v", id, op, v, got)
		}
	}
	for id := uint64(1); id <= 3000; id++ {
		c.TryAdmit(req(id, time.Duration(5+id%40)*time.Millisecond,
			time.Duration(id%7)*50*time.Microsecond, time.Duration(id%5)*80*time.Microsecond, 120*time.Microsecond))
		if id > 2 {
			c.MarkDeparted(int(id%3), id-2)
		}
		// Move the clock first, so the operation's own purge has work.
		clk.Advance(time.Duration(1+id%3) * 200 * time.Microsecond)
		switch id % 6 {
		case 0:
			check("Release", id, c.Release(id-3))
		case 3:
			check("StageIdle", id, c.StageIdle(int(id%3)))
		}
	}
	if st := c.Stats(); st.Admitted == 0 || st.Expired == 0 || st.IdleResets == 0 {
		t.Fatalf("the run did not exercise admits, expiries and idle resets: %+v", st)
	}
}

// TestGateFiresWithinPurgedBucket pins the exact purge-due time: inside
// the wheel bucket that holds the earliest pending deadline, once a
// purge has run, no purge can flush anything until the bucket ends. So
// an armed gate rejects an over-bound request there without taking the
// lock; it used to treat the whole bucket as "purge due" and fall
// through to the lock.
func TestGateFiresWithinPurgedBucket(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(1, 5*time.Millisecond, time.Millisecond)) {
		t.Fatal("short request rejected")
	}
	if !c.TryAdmit(req(2, time.Hour, 20*time.Minute)) {
		t.Fatal("long request rejected")
	}
	// Request 1's deadline opens the current bucket; it flushes when the
	// bucket ends, 1 ms later.
	clk.Advance(5*time.Millisecond + 100*time.Microsecond)
	c.Utilizations() // a purge: drains staging, flushes nothing
	if c.TryAdmit(req(3, time.Hour, 40*time.Minute)) {
		t.Fatal("over-bound request admitted")
	}
	before := c.Stats() // the locked reject armed the gate

	c.mu.Lock()
	done := make(chan bool, 1)
	go func() { done <- c.TryAdmit(req(4, time.Hour, 40*time.Minute)) }()
	select {
	case ok := <-done:
		c.mu.Unlock()
		if ok {
			t.Fatal("over-bound request admitted by the gate")
		}
	case <-time.After(2 * time.Second):
		c.mu.Unlock()
		<-done
		t.Fatal("the reject waited for the lock: the gate did not fire inside the purged bucket")
	}
	after := c.Stats()
	if after.GateRejects != before.GateRejects+1 || after.Rejected != before.Rejected+1 {
		t.Fatalf("gate rejects %d → %d, rejects %d → %d; want one more of each",
			before.GateRejects, after.GateRejects, before.Rejected, after.Rejected)
	}

	// At the bucket's end the purge is due again: request 1 expires and
	// the gate steps aside for the locked path.
	clk.Advance(900 * time.Microsecond)
	if c.TryAdmit(req(5, time.Hour, 40*time.Minute)) {
		t.Fatal("over-bound request admitted after the expiry")
	}
	if st := c.Stats(); st.Expired != 1 || st.GateRejects != after.GateRejects {
		t.Fatalf("at the bucket's end: expired %d (want 1), gate rejects %d (want %d)", st.Expired, st.GateRejects, after.GateRejects)
	}
}
