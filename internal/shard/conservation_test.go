package shard

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/task"
)

// TestShardConservationConcurrent is the sharded conservation property
// test: it hammers a K=8 controller from every mutation path at once —
// TryAdmit, TryAdmitQuality, TryAdmitAll, Release, ReleaseAll,
// MarkDeparted, StageIdle, Reconcile, lock-free reads —
// while a checker repeatedly asserts against the locked ground truth
// that the sum of per-shard charges never exceeds the global bound:
// Σ_j f(Σ_k util_jk) ≤ α(1−Σβ). Every admit (local, stolen, or exact
// pass) commits only a tested point and every other mutation only
// shrinks utilization, so the invariant must hold at every instant
// regardless of interleaving — including mid-steal and mid-rebalance.
// Under -race this doubles as the sharded soundness test mirroring
// internal/online's TestOnlineConcurrentSoundness.
func TestShardConservationConcurrent(t *testing.T) {
	region := core.NewRegion(3)
	bound := region.Bound()
	c := New(region, nil, nil, 8) // real clock: expiry churn is part of the mix
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
			if v := regionValue(c); v > bound+1e-6 {
				t.Errorf("conservation violated: Σ_j f(Σ_k util_jk) = %v > bound %v", v, bound)
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
				switch op % 10 {
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
					id := nextID.Add(1)
					d := time.Duration(100+op%300) * time.Microsecond
					r := Request{
						ID:       id,
						Deadline: 5 * time.Millisecond,
						Demands:  []time.Duration{d, d, d},
						Optional: []time.Duration{d / 2, d / 2, d / 2},
					}
					if _, ok := c.TryAdmitQuality(r, task.QualityLevels); ok {
						mine = append(mine, id)
					}
				case 5:
					if len(mine) > 0 {
						c.Release(mine[0])
						mine = mine[1:]
					}
				case 6:
					if len(mine) >= 2 {
						c.ReleaseAll(mine[:2])
						mine = mine[2:]
					}
				case 7:
					if len(mine) > 0 {
						c.MarkDeparted(op%3, mine[len(mine)-1])
					}
					c.StageIdle(op % 3)
				case 8:
					if op%40 == 8 {
						c.Reconcile() // weighted rebalance racing admits and steals
					}
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

	// Quiesce: everything was released or has a ≤5ms deadline. After the
	// longest deadline passes, a global purge must drain every shard and
	// the per-shard Kahan sums must telescope back to exactly zero
	// (empty shards rebaseline), on every shard, on every stage.
	time.Sleep(10 * time.Millisecond)
	c.Reconcile()
	c.lockShards()
	for ki, s := range c.shards {
		if s.st.Len() != 0 {
			t.Errorf("shard %d: %d rows still live after quiesce", ki, s.st.Len())
		}
		for j := 0; j < c.stages; j++ {
			if u := s.st.Util(j); u != 0 {
				t.Errorf("shard %d stage %d: residual utilization %v after quiesce", ki, j, u)
			}
		}
	}
	c.unlockShards()

	if s := c.Stats(); s.Admitted == 0 {
		t.Fatal("conservation run admitted nothing; workload is not exercising the region")
	}
}

// TestShardConservationDeterministic replays a deterministic trace with
// an injected clock and checks the sharded controller's charges against
// a test-maintained exact ledger after every step: the sum across
// shards must equal the sum of live admitted contributions to within
// accumulated rounding, and must land on exactly zero once the trace
// drains.
func TestShardConservationDeterministic(t *testing.T) {
	const stages = 2
	clk := newFakeClock()
	c := New(core.NewRegion(stages), nil, clk.Now, 4)

	live := map[uint64][]float64{}
	check := func(step int) {
		us := c.Utilizations()
		for j := 0; j < stages; j++ {
			want := 0.0
			for _, contrib := range live {
				want += contrib[j]
			}
			if math.Abs(us[j]-want) > 1e-9 {
				t.Fatalf("step %d stage %d: sum-of-shards %v != exact ledger %v", step, j, us[j], want)
			}
		}
	}

	rng := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 { // xorshift: deterministic, no math/rand seeding dance
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var id uint64
	var order []uint64
	for step := 0; step < 600; step++ {
		switch next() % 4 {
		case 0, 1: // admit
			id++
			deadline := time.Duration(1+next()%5) * time.Second
			d0 := time.Duration(next()%200) * time.Millisecond
			d1 := time.Duration(next()%200) * time.Millisecond
			if c.TryAdmit(Request{ID: id, Deadline: deadline, Demands: []time.Duration{d0, d1}}) {
				live[id] = []float64{
					d0.Seconds() / deadline.Seconds(),
					d1.Seconds() / deadline.Seconds(),
				}
				order = append(order, id)
			}
		case 2: // release oldest
			if len(order) > 0 {
				c.Release(order[0])
				delete(live, order[0])
				order = order[1:]
			}
		default: // advance time: expire everything due
			clk.Advance(time.Duration(next()%1500) * time.Millisecond)
		}
		// Force the lazy purge everywhere, then sync the exact ledger
		// with expiry through the controller's own membership view
		// (QualityOf reports presence without mutating).
		c.Utilizations()
		for lid := range live {
			if _, present := c.QualityOf(lid); !present {
				delete(live, lid)
				for i, oid := range order {
					if oid == lid {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		}
		check(step)
	}
	// Drain: release everything, then the ledgers must be exactly empty.
	for _, oid := range order {
		c.Release(oid)
	}
	clk.Advance(time.Hour)
	c.Reconcile()
	for j := 0; j < stages; j++ {
		if u := c.StageUtilization(j); u != 0 {
			t.Fatalf("stage %d: residual %v after full drain", j, u)
		}
	}
}
