package feasregion_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/online"
)

// Cluster routing hot-path benchmarks: one full Route — policy pick
// over the seqlock-published headroom snapshots, admission on the
// chosen replica, rollback to the runner-up on refusal — followed by
// the release, so the fleet's occupancy stays in steady state and
// every iteration measures the same work. The acceptance floor is
// 0 allocs/op for every policy at every fan-out.
//
// BenchmarkClusterRoute/<policy>-<g> splits b.N over exactly g
// goroutines on an 8-replica fleet; `make bench-cluster` emits the set
// as BENCH_cluster.json.

// benchFleet builds an 8-replica fleet with a frozen clock so no
// iteration pays (or dodges) expiry-purge work.
func benchFleet(pol cluster.Policy) *cluster.Cluster {
	t0 := time.Now()
	return cluster.New(cluster.Options{
		Region: core.NewRegion(3),
		Online: online.Config{Clock: func() time.Time { return t0 }},
		Policy: pol,
		Seed:   42,
		Scaler: cluster.AutoscalerConfig{Min: 8, Max: 8},
	})
}

func BenchmarkClusterRoute(b *testing.B) {
	for _, pol := range cluster.Policies {
		for _, g := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s-%d", pol, g), func(b *testing.B) {
				benchRouteN(b, pol, g)
			})
		}
	}
}

// benchRouteN splits b.N over exactly g goroutines (RunParallel's
// worker count floats with GOMAXPROCS, which would blur the fan-out
// axis). Each worker routes, then releases on the replica that
// admitted, keeping the fleet in steady state.
func benchRouteN(b *testing.B, pol cluster.Policy, g int) {
	c := benchFleet(pol)
	var nextID atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	per := b.N / g
	extra := b.N % g
	for w := 0; w < g; w++ {
		n := per
		if w < extra {
			n++
		}
		go func(n int) {
			demands := []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}
			for i := 0; i < n; i++ {
				req := online.Request{
					ID:       nextID.Add(1),
					Deadline: time.Second,
					Demands:  demands,
				}
				rep, ok := c.Route(req)
				if ok {
					rep.Release(req.ID)
				}
			}
			done <- struct{}{}
		}(n)
	}
	for w := 0; w < g; w++ {
		<-done
	}
}

// BenchmarkClusterRouteExpiring is the online-wall shape: 2 goroutines
// route into 4 power-of-two-choices replicas on a shared virtual clock
// that each request advances to its own arrival time, so reservations
// leave only by deadline expiry and every admit may find a purge due.
// The offered load is about twice what the fleet admits, so rejects
// are common, and rejectsByGate reports the share of them the lock-free
// overload gate decided. One op is one Route; the floor is 0 allocs/op
// after the warm-up has grown the expiry wheels.
func BenchmarkClusterRouteExpiring(b *testing.B) {
	var clock atomic.Int64
	c := cluster.New(cluster.Options{
		Region: core.NewRegion(3),
		Online: online.Config{Clock: func() time.Time { return time.Unix(0, clock.Load()) }},
		Policy: cluster.PowerOfTwo,
		Seed:   7,
		Scaler: cluster.AutoscalerConfig{Min: 4, Max: 4},
	})
	var next atomic.Uint64
	route := func(n int) {
		demands := make([]time.Duration, 3)
		for i := 0; i < n; i++ {
			id := next.Add(1)
			// 200 µs between arrivals; the clock is a monotone max, as in
			// online-wall, so the two clients never step it backwards.
			at := int64(id) * 200 * int64(time.Microsecond)
			for cur := clock.Load(); at > cur && !clock.CompareAndSwap(cur, at); cur = clock.Load() {
			}
			deadline := time.Duration(5+id*7919%40) * time.Millisecond
			for j := range demands {
				demands[j] = deadline / time.Duration(30+(id>>j)%50)
			}
			c.Route(online.Request{ID: id, Deadline: deadline, Demands: demands})
		}
	}
	rejects := func() (all, gate uint64) {
		for _, r := range c.Replicas() {
			s := r.Controller().Stats()
			all += s.Rejected
			gate += s.GateRejects
		}
		return all, gate
	}
	route(100_000)
	all0, gate0 := rejects()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			route(n)
		}(b.N/2 + w*(b.N%2))
	}
	wg.Wait()
	b.StopTimer()
	if all, gate := rejects(); all > all0 {
		b.ReportMetric(float64(gate-gate0)/float64(all-all0), "rejectsByGate")
	}
}
