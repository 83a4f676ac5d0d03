package online

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/task"
)

func qreq(id uint64, deadline time.Duration, demand, optional time.Duration) Request {
	return Request{
		ID:       id,
		Deadline: deadline,
		Demands:  []time.Duration{demand},
		Optional: []time.Duration{optional},
	}
}

func TestTryAdmitQualityFullFit(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	lv, ok := c.TryAdmitQuality(qreq(1, time.Second, 300*time.Millisecond, 200*time.Millisecond), task.QualityLevels)
	if !ok || lv != task.QualityLevels {
		t.Fatalf("uncontended admit at level %d ok=%v, want full %d", lv, ok, task.QualityLevels)
	}
	if got, present := c.QualityOf(1); !present || got != task.QualityLevels {
		t.Fatalf("QualityOf = %d/%v, want full/present", got, present)
	}
	if s := c.Stats(); s.Degraded != 0 {
		t.Fatalf("full-quality admit counted as degraded: %+v", s)
	}
}

func TestTryAdmitQualityFallsBack(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Background: u=0.5, f(0.5)=0.75. Remaining headroom admits at most
	// ~0.086 more utilization (f saturates the bound 1.0 at u≈0.586).
	if !c.TryAdmit(req(100, time.Second, 500*time.Millisecond)) {
		t.Fatal("background rejected")
	}
	// Arrival: demand 0.3 of which 0.28 optional. Mandatory 0.02 fits;
	// each ladder step adds 0.035, so level 1 (0.055) fits and level 2
	// (0.09) does not.
	lv, ok := c.TryAdmitQuality(qreq(1, time.Second, 300*time.Millisecond, 280*time.Millisecond), task.QualityLevels)
	if !ok {
		t.Fatal("degradable arrival rejected outright")
	}
	if lv != 1 {
		t.Fatalf("admitted at level %d, want 1 (highest fitting)", lv)
	}
	if got, present := c.QualityOf(1); !present || got != lv {
		t.Fatalf("QualityOf = %d/%v, want %d/present", got, present, lv)
	}
	if s := c.Stats(); s.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", s.Degraded)
	}
	// A rigid request of the same size must still be rejected.
	if c.TryAdmit(req(2, time.Second, 300*time.Millisecond)) {
		t.Fatal("rigid request of the same size admitted")
	}
}

func TestTryAdmitQualityRespectsCap(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	lv, ok := c.TryAdmitQuality(qreq(1, time.Second, 300*time.Millisecond, 200*time.Millisecond), 3)
	if !ok || lv != 3 {
		t.Fatalf("admit under cap 3 gave level %d ok=%v, want 3", lv, ok)
	}
	// Cap 0 admits mandatory-only.
	lv, ok = c.TryAdmitQuality(qreq(2, time.Second, 300*time.Millisecond, 200*time.Millisecond), 0)
	if !ok || lv != 0 {
		t.Fatalf("admit under cap 0 gave level %d ok=%v, want 0", lv, ok)
	}
}

func TestTryAdmitQualityRejectsWhenMandatoryDoesNotFit(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(100, time.Second, 550*time.Millisecond)) {
		t.Fatal("background rejected")
	}
	// Mandatory 0.2 alone overflows the remaining headroom.
	if lv, ok := c.TryAdmitQuality(qreq(1, time.Second, 400*time.Millisecond, 200*time.Millisecond), task.QualityLevels); ok {
		t.Fatalf("admitted at level %d though mandatory demand does not fit", lv)
	}
	if _, present := c.QualityOf(1); present {
		t.Fatal("rejected request left a contribution")
	}
}

func TestTryAdmitQualityRejectsMalformed(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	bad := Request{
		ID:       1,
		Deadline: time.Second,
		Demands:  []time.Duration{time.Millisecond, time.Millisecond},
		Optional: []time.Duration{2 * time.Millisecond, 0}, // optional > demand
	}
	if _, ok := c.TryAdmitQuality(bad, task.QualityLevels); ok {
		t.Fatal("admitted a request with optional exceeding demand")
	}
	short := Request{
		ID:       2,
		Deadline: time.Second,
		Demands:  []time.Duration{time.Millisecond, time.Millisecond},
		Optional: []time.Duration{0}, // wrong arity
	}
	if _, ok := c.TryAdmitQuality(short, task.QualityLevels); ok {
		t.Fatal("admitted a request with mismatched Optional length")
	}
}

func TestDegradedExpiryCreditsDegradedDemand(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(100, 10*time.Second, 5*time.Second)) {
		t.Fatal("background rejected")
	}
	lv, ok := c.TryAdmitQuality(qreq(1, time.Second, 300*time.Millisecond, 280*time.Millisecond), task.QualityLevels)
	if !ok || lv >= task.QualityLevels {
		t.Fatalf("expected a degraded admit, got level %d ok=%v", lv, ok)
	}
	before := c.StageUtilization(0)
	clk.Advance(time.Second + 2*wheelGranularity)
	after := c.StageUtilization(0)
	// The decrement credits exactly the degraded charge: utilization
	// returns to the background's 0.5, not below.
	if diff := after - 0.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("after expiry utilization %v (was %v), want background 0.5", after, before)
	}
	if _, present := c.QualityOf(1); present {
		t.Fatal("expired request still tracked by QualityOf")
	}
}

// TestReleaseCancelsPendingExpiry checks a released request's pending
// expiry is discarded, not credited: once a purge runs past the
// deadlines, both released requests count as Cancelled and none as
// Expired.
func TestReleaseCancelsPendingExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(1, time.Second, 100*time.Millisecond)) {
		t.Fatal("admit failed")
	}
	if !c.TryAdmit(req(2, time.Second, 100*time.Millisecond)) {
		t.Fatal("admit failed")
	}
	c.Release(1)
	if c.ReleaseAll([]uint64{2, 3}) != 1 {
		t.Fatal("ReleaseAll released wrong count")
	}
	if got := c.Utilizations()[0]; got != 0 {
		t.Fatalf("utilization %v after releasing everything, want 0", got)
	}
	clk.Advance(2 * time.Second)
	if n := c.Reconcile(); n != 0 {
		t.Fatalf("Reconcile expired %d released requests, want 0", n)
	}
	if s := c.Stats(); s.Cancelled != 2 || s.Expired != 0 {
		t.Fatalf("Cancelled = %d, Expired = %d after release and purge, want 2 and 0", s.Cancelled, s.Expired)
	}
}

// TestQualityAdmitZeroAlloc proves the degraded fallback allocates
// nothing: full test, mandatory precheck, binary search, and commit all
// run on stack scratch, like the plain admit path.
func TestQualityAdmitZeroAlloc(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	// Background pins the region (u=0.35 per stage, Σf ≈ 0.888) so the
	// 0.06-utilization probe cannot fit at full quality but its 0.005
	// mandatory part can: every run walks the whole cascade.
	if !c.TryAdmit(req(1000, time.Second, 350*time.Millisecond, 350*time.Millisecond)) {
		t.Fatal("background rejected")
	}
	r := Request{
		Deadline: time.Second,
		Demands:  []time.Duration{60 * time.Millisecond, 60 * time.Millisecond},
		Optional: []time.Duration{55 * time.Millisecond, 55 * time.Millisecond},
	}
	var id uint64
	allocs := testing.AllocsPerRun(200, func() {
		id++
		r.ID = id
		lv, ok := c.TryAdmitQuality(r, task.QualityLevels)
		if !ok {
			t.Fatal("probe rejected")
		}
		if lv == task.QualityLevels {
			t.Fatal("probe did not exercise the fallback search")
		}
		c.Release(id)
	})
	if allocs != 0 {
		t.Fatalf("quality admit cycle allocates %v per op, want 0", allocs)
	}
}

// TestOnlineConcurrentQualitySoundness is the quality-path analogue of
// TestOnlineConcurrentSoundness: TryAdmitQuality, Release, and expiry
// churn race while a checker asserts, through the public RegionValue
// read, that the committed utilization point never leaves the region.
// Degraded admits commit a tested point, so Σ f(U_j) ≤ bound must hold
// at every instant.
func TestOnlineConcurrentQualitySoundness(t *testing.T) {
	region := core.NewRegion(2)
	bound := region.Bound()
	c := New(region, nil, nil) // real clock: expiry churn is part of the mix
	const workers = 8
	const opsPerWorker = 1200

	var wg sync.WaitGroup
	var nextID atomic.Uint64
	stop := make(chan struct{})
	checker := make(chan struct{})
	go func() {
		defer close(checker)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, b := c.RegionValue(); v > b+1e-6 || b != bound {
				t.Errorf("region invariant violated: Σ f(U_j) = %v > bound %v (want bound %v)", v, b, bound)
				return
			}
		}
	}()

	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			var mine []Request
			for op := 0; op < opsPerWorker; op++ {
				switch op % 6 {
				case 0, 1, 2:
					id := nextID.Add(1)
					dem := time.Duration(100+op%300) * time.Microsecond
					r := Request{
						ID:       id,
						Deadline: 5 * time.Millisecond,
						Demands:  []time.Duration{dem, dem},
						Optional: []time.Duration{dem / 2, dem * 3 / 4},
					}
					if _, ok := c.TryAdmitQuality(r, task.QualityLevels); ok {
						mine = append(mine, r)
					}
				case 3, 4:
					if len(mine) > 0 {
						c.Release(mine[0].ID)
						mine = mine[1:]
					}
				default:
					_ = c.Utilizations()
					if len(mine) > 0 {
						_, _ = c.QualityOf(mine[0].ID)
					}
				}
			}
			for _, r := range mine {
				c.Release(r.ID)
			}
		}(wkr)
	}
	wg.Wait()
	close(stop)
	<-checker

	checkQuiesced(t, c)
	if s := c.Stats(); s.Admitted == 0 || s.Degraded == 0 {
		t.Fatalf("workload did not exercise the degraded path: %+v", s)
	}
}
