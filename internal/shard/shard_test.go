package shard

import (
	"math"
	"sync"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/task"
)

// fakeClock is a settable clock for deterministic tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func req(id uint64, deadline time.Duration, demands ...time.Duration) Request {
	return Request{ID: id, Deadline: deadline, Demands: demands}
}

// regionValue is the locked ground truth: Σ_j f(Σ_k util_jk).
func regionValue(c *Controller) float64 {
	c.lockShards()
	defer c.unlockShards()
	sum := 0.0
	for j := 0; j < c.stages; j++ {
		u := 0.0
		for _, s := range c.shards {
			u += s.st.Util(j)
		}
		sum += core.StageDelayFactor(u)
	}
	return sum
}

func TestShardAdmitUntilFull(t *testing.T) {
	for _, k := range []int{1, 4} {
		clk := newFakeClock()
		c := New(core.NewRegion(1), nil, clk.Now, k)
		// Each request: 1s of work within 4s -> contribution 0.25.
		if !c.TryAdmit(req(1, 4*time.Second, time.Second)) {
			t.Fatalf("k=%d: first rejected", k)
		}
		if !c.TryAdmit(req(2, 4*time.Second, time.Second)) {
			t.Fatalf("k=%d: second rejected", k)
		}
		if c.TryAdmit(req(3, 4*time.Second, time.Second)) {
			t.Fatalf("k=%d: third admitted beyond the bound", k)
		}
		s := c.Stats()
		if s.Admitted != 2 || s.Rejected != 1 {
			t.Fatalf("k=%d: stats %+v", k, s)
		}
	}
}

func TestShardRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, MaxShards},
	} {
		c := New(core.NewRegion(1), nil, nil, tc.in)
		if c.Shards() != tc.want {
			t.Fatalf("New(k=%d).Shards() = %d, want %d", tc.in, c.Shards(), tc.want)
		}
	}
}

func TestShardExpiryFreesCapacity(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 4)
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
	// Expiry is lazy and per-shard: a contribution on an untouched shard
	// lingers until that shard is next purged. Force a global purge.
	c.Utilizations()
	if s := c.Stats(); s.Expired != 2 {
		t.Fatalf("expired = %d, want 2; stats %+v", s.Expired, s)
	}
}

func TestShardReleaseFreesCapacity(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now, 4)
	if !c.TryAdmit(req(7, 2*time.Second, 500*time.Millisecond, 500*time.Millisecond)) {
		t.Fatal("admit rejected")
	}
	before := regionValue(c)
	if before <= 0 {
		t.Fatalf("charge not recorded: value %v", before)
	}
	c.Release(7)
	if after := regionValue(c); after > 1e-12 {
		t.Fatalf("release left residual value %v", after)
	}
	c.Release(7) // double release is a no-op
	if v := regionValue(c); v < -1e-12 {
		t.Fatalf("double release went negative: %v", v)
	}
}

// TestShardStealOrGlobalPass forces per-shard headroom exhaustion: many
// small admits spread across shards, then a large request that no single
// shard's cap can hold. Work conservation demands it still be admitted —
// via steal or the exact global pass.
func TestShardStealOrGlobalPass(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 8)
	bound := c.Bound()
	// Fill roughly half the region with small admits.
	var small []uint64
	target := core.InverseStageDelayFactor(bound / 2)
	var id uint64
	for {
		u := 0.0
		c.lockShards()
		for _, s := range c.shards {
			u += s.st.Util(0)
		}
		c.unlockShards()
		if u >= target {
			break
		}
		id++
		if !c.TryAdmit(req(id, 10*time.Second, 100*time.Millisecond)) {
			t.Fatalf("small admit %d rejected with u=%v < target %v", id, u, target)
		}
		small = append(small, id)
	}
	// One large request: fits globally, cannot fit in any one shard's
	// residual cap.
	rest := core.InverseStageDelayFactor(bound*0.9) - target
	if rest <= 0 {
		t.Fatalf("bad geometry: rest = %v", rest)
	}
	big := req(id+1, 10*time.Second, time.Duration(rest*1e10)*time.Nanosecond)
	if !c.TryAdmit(big) {
		t.Fatalf("work conservation violated: big request rejected (stats %+v)", c.Stats())
	}
	s := c.Stats()
	if s.Steals == 0 && s.GlobalFallbacks == 0 {
		t.Fatalf("big admit went purely local; test geometry is off (stats %+v)", s)
	}
	for _, sid := range small {
		c.Release(sid)
	}
	c.Release(id + 1)
	if v := regionValue(c); math.Abs(v) > 1e-9 {
		t.Fatalf("residual value %v after releasing everything", v)
	}
}

// TestShardCapInvariant checks the partition invariants after heavy
// churn: util_jk ≤ caps_jk (+FP slop) on every shard, and the caps sum
// to a point inside the region.
func TestShardCapInvariant(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(3), nil, clk.Now, 4)
	var ids []uint64
	for i := uint64(1); i <= 200; i++ {
		d := time.Duration(1+i%7) * 10 * time.Millisecond
		if c.TryAdmit(req(i, 5*time.Second, d, d/2, d/3)) {
			ids = append(ids, i)
		}
		if i%3 == 0 && len(ids) > 0 {
			c.Release(ids[0])
			ids = ids[1:]
		}
		if i%17 == 0 {
			c.Reconcile() // weighted repartition under churn
		}
	}
	c.lockShards()
	defer c.unlockShards()
	sum := 0.0
	for j := 0; j < c.stages; j++ {
		total := 0.0
		for ki, s := range c.shards {
			if u := s.st.Util(j); u > s.caps[j]+1e-9 {
				t.Fatalf("shard %d stage %d: util %v > cap %v", ki, j, u, s.caps[j])
			}
			total += s.caps[j]
		}
		sum += core.StageDelayFactor(total)
	}
	if sum > c.bound+1e-9 {
		t.Fatalf("cap partition leaves the region: Σ f(Cap_j) = %v > %v", sum, c.bound)
	}
}

func TestShardInvalidRequests(t *testing.T) {
	c := New(core.NewRegion(2), nil, nil, 4)
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

func TestShardDuplicateAdmitPanics(t *testing.T) {
	c := New(core.NewRegion(1), nil, nil, 2)
	if !c.TryAdmit(req(42, time.Hour, time.Millisecond)) {
		t.Fatal("admit rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second admit of a live ID did not panic")
		}
	}()
	c.TryAdmit(req(42, time.Hour, time.Millisecond))
}

func TestShardStageIdleAndMarkDeparted(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now, 4)
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

func TestShardBatchGroupsByShard(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 4)
	rs := make([]Request, 16)
	for i := range rs {
		rs[i] = req(uint64(i+1), time.Hour, time.Millisecond)
	}
	out := make([]bool, len(rs))
	if n := c.TryAdmitAll(rs, out); n != len(rs) {
		t.Fatalf("batch admitted %d of %d", n, len(rs))
	}
	ids := make([]uint64, len(rs))
	for i := range rs {
		if !out[i] {
			t.Fatalf("slot %d not flagged", i)
		}
		ids[i] = rs[i].ID
	}
	if n := c.ReleaseAll(ids); n != len(ids) {
		t.Fatalf("ReleaseAll removed %d of %d", n, len(ids))
	}
	if v := regionValue(c); math.Abs(v) > 1e-9 {
		t.Fatalf("residual value %v after batch release", v)
	}
}

func TestShardQualityDegrades(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 4)
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
	if v := regionValue(c); v > c.Bound()+1e-9 {
		t.Fatalf("degraded admit left the region: %v > %v", v, c.Bound())
	}
}

func TestShardScaleAndRegionMoves(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 4)
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

func TestShardGateRejectsWithoutLock(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 4)
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
	after := c.Stats()
	if after.GlobalFallbacks != before.GlobalFallbacks {
		t.Fatalf("repeat rejects took the exact pass (%d → %d fallbacks); gate never engaged",
			before.GlobalFallbacks, after.GlobalFallbacks)
	}
	// Freeing capacity must disarm the gate.
	c.Release(1)
	id++
	if !c.TryAdmit(req(id, time.Hour, 90*time.Second)) {
		t.Fatal("gate stayed armed after a release freed capacity")
	}
}

func TestShardUtilizationsMatchPerShardSums(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now, 8)
	for i := uint64(1); i <= 50; i++ {
		c.TryAdmit(req(i, time.Hour, 5*time.Millisecond, 3*time.Millisecond))
	}
	us := c.Utilizations()
	for j := 0; j < 2; j++ {
		sum := 0.0
		for k := 0; k < c.Shards(); k++ {
			sum += c.ShardStageUtilization(k, j)
			if cap := c.ShardStageCap(k, j); cap < 0 {
				t.Fatalf("negative cap shard %d stage %d", k, j)
			}
		}
		if math.Abs(sum-us[j]) > 1e-9 {
			t.Fatalf("stage %d: Σ shards %v != global %v", j, sum, us[j])
		}
	}
}

// TestAdmitValueMatchesRegionValue pins the fused publish: the region
// value an admit hands back equals, bit for bit, what a RegionValue call
// right after it reads — at K=1 (computed inside the admit's critical
// section) and at K>1 (a RegionValue call after the admit). The clock
// stands still across each admit and its check and moves between them,
// so rows expire and staged entries drain along the way; reserved floors
// and stage scales other than 1 are in force. With nothing released,
// each shard's nextExp after that purge must equal its wheel's
// NextFlush: a commit's staged entry lowers it to the same bucket end
// the wheel reports once the entry is filed.
func TestAdmitValueMatchesRegionValue(t *testing.T) {
	for _, k := range []int{1, 4} {
		clk := newFakeClock()
		c := New(core.NewRegion(3), []float64{0.05, 0.1, 0}, clk.Now, k)
		c.SetStageScale(0, 1.5)
		c.SetStageScale(2, 0.75)
		admitted := 0
		for id := uint64(1); id <= 3000; id++ {
			r := req(id, time.Duration(5+id%40)*time.Millisecond,
				time.Duration(id%7)*50*time.Microsecond, time.Duration(id%5)*80*time.Microsecond, 120*time.Microsecond)
			value := math.NaN()
			if !c.Admit(&r, &value) {
				if !math.IsNaN(value) {
					t.Fatalf("k=%d id %d: a reject wrote value %v", k, id, value)
				}
			} else {
				admitted++
				if got, _ := c.RegionValue(); math.Float64bits(got) != math.Float64bits(value) {
					t.Fatalf("k=%d id %d: admit value %v, RegionValue %v", k, id, value, got)
				}
			}
			for i, s := range c.shards {
				want, ok := s.whl.NextFlush()
				if !ok {
					want = math.MaxInt64
				}
				if got := s.nextExp.Load(); got != want {
					t.Fatalf("k=%d id %d shard %d: nextExp %d, wheel NextFlush %d", k, id, i, got, want)
				}
			}
			clk.Advance(time.Duration(id%3) * 300 * time.Microsecond)
		}
		if st := c.Stats(); admitted == 0 || st.Rejected == 0 || st.Expired == 0 {
			t.Fatalf("k=%d: the run did not exercise admits, rejects and expiries: %+v", k, st)
		}
	}
}

// TestGateFiresWithinPurgedBucket pins the exact purge-due time: inside
// the wheel bucket that holds the earliest pending deadline, once a
// purge has run, no purge can flush anything until the bucket ends. So
// an armed gate rejects an over-bound request there without taking the
// shard lock; it used to treat the whole bucket as "purge due" and fall
// through to the lock.
func TestGateFiresWithinPurgedBucket(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now, 1)
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

	s := c.shards[0]
	s.mu.Lock()
	done := make(chan bool, 1)
	go func() { done <- c.TryAdmit(req(4, time.Hour, 40*time.Minute)) }()
	select {
	case ok := <-done:
		s.mu.Unlock()
		if ok {
			t.Fatal("over-bound request admitted by the gate")
		}
	case <-time.After(2 * time.Second):
		s.mu.Unlock()
		<-done
		t.Fatal("the reject waited for the shard lock: the gate did not fire inside the purged bucket")
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
