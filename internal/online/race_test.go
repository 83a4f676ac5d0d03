package online

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
)

// TestOnlineConcurrentSoundness hammers the controller from every
// mutation path at once — TryAdmit, TryAdmitAll, Release, StageIdle,
// MarkDeparted, reads — while a checker repeatedly asserts the
// region-soundness invariant through the public RegionValue read: the
// committed utilization point never leaves Σ f(U_j) ≤ α(1−Σβ_j).
// Admission only ever commits a tested point and every other mutation
// only decreases utilization, so the invariant must hold at every
// instant regardless of interleaving. Run under -race this also proves
// the reads, the lock-free gate, and the counters are data-race-free;
// at the end (writers quiesced) RegionValue must equal Σ f(U_j)
// recomputed from Utilizations.
func TestOnlineConcurrentSoundness(t *testing.T) {
	region := core.NewRegion(3)
	bound := region.Bound()
	c := New(region, nil, nil) // real clock: expiry churn is part of the mix
	const workers = 8
	const opsPerWorker = 1500

	var wg sync.WaitGroup
	var nextID atomic.Uint64
	stop := make(chan struct{})

	// Checker: locked ground truth, concurrent with all mutations.
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
			var mine []uint64
			for op := 0; op < opsPerWorker; op++ {
				switch op % 8 {
				case 0, 1, 2:
					id := nextID.Add(1)
					dem := time.Duration(50+op%200) * time.Microsecond
					if c.TryAdmit(req(id, 5*time.Millisecond, dem, dem, dem)) {
						mine = append(mine, id)
					}
				case 3:
					rs := make([]Request, 3)
					out := make([]bool, 3)
					for i := range rs {
						d := time.Duration(50+op%100) * time.Microsecond
						rs[i] = req(nextID.Add(1), 5*time.Millisecond, d, d, d)
					}
					n := c.TryAdmitAll(rs, out)
					got := 0
					for i, ok := range out {
						if ok {
							got++
							mine = append(mine, rs[i].ID)
						}
					}
					if got != n {
						t.Errorf("TryAdmitAll returned %d but flagged %d", n, got)
						return
					}
				case 4:
					if len(mine) > 0 {
						c.Release(mine[0])
						mine = mine[1:]
					}
				case 5:
					if len(mine) > 0 {
						c.MarkDeparted(op%3, mine[len(mine)-1])
					}
					c.StageIdle(op % 3)
				case 6:
					us := c.Utilizations()
					for _, u := range us {
						if u < 0 {
							t.Errorf("negative utilization %v in snapshot %v", u, us)
							return
						}
					}
				default:
					_ = c.StageUtilization(op % 3)
					_ = c.Stats()
				}
			}
			for _, id := range mine {
				c.Release(id)
			}
		}(wkr)
	}
	wg.Wait()
	close(stop)
	<-checker

	checkQuiesced(t, c)
	s := c.Stats()
	if s.Admitted == 0 {
		t.Fatal("soundness run admitted nothing; workload is not exercising the region")
	}
}

// checkQuiesced asserts, with no concurrent writers, that RegionValue
// equals Σ_j f(U_j) recomputed from scratch over Utilizations and that
// the point lies inside the region.
func checkQuiesced(t *testing.T, c *Controller) {
	t.Helper()
	v, b := c.RegionValue()
	want := 0.0
	for _, u := range c.Utilizations() {
		if u < 0 {
			t.Fatalf("negative utilization %v at quiesce", u)
		}
		want += core.StageDelayFactor(u)
	}
	if v != want {
		t.Fatalf("RegionValue %v != Σ f(U_j) %v recomputed from Utilizations", v, want)
	}
	if v > b {
		t.Fatalf("quiesced point outside the region: %v > %v", v, b)
	}
}
