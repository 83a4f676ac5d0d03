package online

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

func TestOnlineAdmitUntilFull(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Each request: 1s of work within 4s -> contribution 0.25.
	if !c.TryAdmit(req(1, 4*time.Second, time.Second)) {
		t.Fatal("first rejected")
	}
	if !c.TryAdmit(req(2, 4*time.Second, time.Second)) {
		t.Fatal("second rejected")
	}
	if c.TryAdmit(req(3, 4*time.Second, time.Second)) {
		t.Fatal("third admitted beyond the bound")
	}
	s := c.Stats()
	if s.Admitted != 2 || s.Rejected != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOnlineLazyExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(1, 2*time.Second, 600*time.Millisecond)) {
		t.Fatal("first rejected")
	}
	if !c.TryAdmit(req(2, 2*time.Second, 400*time.Millisecond)) {
		t.Fatal("second rejected")
	}
	if got := c.Utilizations()[0]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %v, want 0.5", got)
	}
	clk.Advance(2100 * time.Millisecond)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after expiry %v, want 0", got)
	}
	if !c.TryAdmit(req(3, 2*time.Second, time.Second)) {
		t.Fatal("rejected after old contributions expired")
	}
}

func TestOnlineIdleReset(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	if !c.TryAdmit(req(1, 2*time.Second, 500*time.Millisecond, 500*time.Millisecond)) {
		t.Fatal("request rejected")
	}
	c.MarkDeparted(0, 1)
	c.StageIdle(0)
	us := c.Utilizations()
	if us[0] != 0 {
		t.Fatalf("stage 0 utilization after idle reset %v, want 0", us[0])
	}
	if us[1] == 0 {
		t.Fatal("stage 1 must retain the contribution (not departed)")
	}
}

func TestOnlineRelease(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	c.TryAdmit(req(1, 10*time.Second, 4*time.Second))
	c.Release(1)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization after release %v, want 0", got)
	}
	// Stale expiry (at t+10s) must be harmless.
	clk.Advance(11 * time.Second)
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization %v after stale expiry", got)
	}
}

func TestOnlineReservedFloor(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), []float64{0.5}, clk.Now)
	if got := c.Utilizations()[0]; got != 0.5 {
		t.Fatalf("reserved floor %v", got)
	}
	// Only ≈0.086 of headroom left.
	if c.TryAdmit(req(1, 10*time.Second, 2*time.Second)) {
		t.Fatal("admitted past reserved capacity")
	}
	if !c.TryAdmit(req(2, 10*time.Second, 500*time.Millisecond)) {
		t.Fatal("small request rejected")
	}
}

func TestOnlineRejectsMalformedRequests(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	if c.TryAdmit(req(1, 0, time.Second, time.Second)) {
		t.Fatal("zero deadline admitted")
	}
	if c.TryAdmit(req(2, time.Second, time.Second)) {
		t.Fatal("wrong demand count admitted")
	}
}

// TestNegativeDemandRejected checks a negative demand is malformed on
// every admit path: charged, it would subtract from the stage sums and
// create capacity. Each path rejects it, counts it as rejected, and
// leaves the utilizations untouched.
func TestNegativeDemandRejected(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	neg := req(1, time.Second, -10*time.Second)
	if c.TryAdmit(neg) {
		t.Fatal("TryAdmit admitted a negative demand")
	}
	if _, ok := c.TryAdmitQuality(neg, task.QualityLevels); ok {
		t.Fatal("TryAdmitQuality admitted a negative demand")
	}
	out := make([]bool, 2)
	if n := c.TryAdmitAll([]Request{neg, req(2, time.Second, 125*time.Millisecond)}, out); n != 1 || out[0] || !out[1] {
		t.Fatalf("TryAdmitAll admitted %d with outcomes %v, want 1 with [false true]", n, out)
	}
	if s := c.Stats(); s.Rejected != 3 || s.Admitted != 1 {
		t.Fatalf("stats %+v, want 3 rejected and 1 admitted", s)
	}
	if got := c.Utilizations()[0]; got != 0.125 {
		t.Fatalf("utilization %v, want the one valid request's 0.125", got)
	}
}

func TestOnlineDuplicateAdmitPanics(t *testing.T) {
	c := New(core.NewRegion(1), nil, nil)
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

func TestOnlineHeadroom(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	c.TryAdmit(req(1, 10*time.Second, 3*time.Second, time.Second))
	h := c.Headroom(0)
	if h <= 0 || h >= 1 {
		t.Fatalf("headroom %v", h)
	}
}

func TestOnlineConcurrentAdmission(t *testing.T) {
	c := New(core.NewRegion(2), nil, nil) // real clock
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	var admitted int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i + 1)
				if c.TryAdmit(req(id, 50*time.Millisecond, 100*time.Microsecond, 100*time.Microsecond)) {
					local++
					if i%3 == 0 {
						c.MarkDeparted(0, id)
					}
					if i%7 == 0 {
						c.Release(id)
					}
				}
				if i%11 == 0 {
					c.StageIdle(0)
				}
				if i%13 == 0 {
					c.Utilizations()
				}
			}
			mu.Lock()
			admitted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatal("nothing admitted under concurrency")
	}
	s := c.Stats()
	if s.Admitted != uint64(admitted) {
		t.Fatalf("stats admitted %d, counted %d", s.Admitted, admitted)
	}
	// The region invariant held throughout: the final point is inside.
	us := c.Utilizations()
	sum := 0.0
	for _, u := range us {
		sum += core.StageDelayFactor(u)
	}
	if sum > 1+1e-9 {
		t.Fatalf("final region value %v exceeds bound", sum)
	}
}

func TestOnlinePanicsOnBadReserved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(core.NewRegion(2), []float64{0.1}, nil)
}
