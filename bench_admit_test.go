package feasregion_test

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/online"
	"feasregion/internal/task"
)

// Admission hot-path benchmarks: the scaling trajectory demanded by the
// hot-path rebuild. `baselineAdmitController` below is a frozen copy of
// the pre-change online.Controller hot path (one big mutex, per-admit
// delta allocation, container/heap + pending-map expiry, broadcast
// close/remake wake channel), kept so every future run re-measures the
// "before" on current hardware instead of trusting a stale number. The
// Benchmark(Baseline)?Admit* pairs measure:
//
//   - Uncontended: serial admit+release ns/op and allocs/op (the new
//     path must report 0 allocs/op);
//   - Parallel1/4/16/64/128/256: g goroutines splitting b.N over
//     admit+release — the throughput scaling curve;
//   - RejectParallel16: a full region hammered by 16 goroutines — the
//     new path rejects through the shard plane's lock-free overload
//     gate, the baseline serializes every rejection.
//
// The BenchmarkShardedAdmit* set runs the same harness over the K=8
// sharded controller (online.Config{Shards: 8}): admits charge a
// cache-line-isolated home shard instead of one shared mutex, so the
// wide fan-outs (64+) are where the partition pays — the acceptance
// floor is ≥ 3× the single-shard 64-goroutine throughput at 0
// allocs/op.
//
// `make bench-admit` emits these as BENCH_admit.json.

// --- frozen pre-change implementation (trimmed to the measured path) ---

type baselineExpiry struct {
	at time.Time
	id uint64
}

type baselineExpiryHeap []baselineExpiry

func (h baselineExpiryHeap) Len() int           { return len(h) }
func (h baselineExpiryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h baselineExpiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *baselineExpiryHeap) Push(x any)        { *h = append(*h, x.(baselineExpiry)) }
func (h *baselineExpiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type baselineAdmitController struct {
	region core.Region

	mu       sync.Mutex
	ledgers  []*core.Ledger
	expiries baselineExpiryHeap
	pending  map[uint64]time.Time
	scales   []float64
	maxNow   time.Time
	waitCh   chan struct{}
	admitted uint64
	rejected uint64
	expired  uint64
}

func newBaselineAdmitController(region core.Region) *baselineAdmitController {
	ledgers := make([]*core.Ledger, region.Stages)
	scales := make([]float64, region.Stages)
	for j := range ledgers {
		ledgers[j] = core.NewLedger(0)
		scales[j] = 1
	}
	return &baselineAdmitController{
		region:  region,
		ledgers: ledgers,
		scales:  scales,
		pending: map[uint64]time.Time{},
		waitCh:  make(chan struct{}),
	}
}

func (c *baselineAdmitController) bumpLocked() {
	close(c.waitCh)
	c.waitCh = make(chan struct{})
}

func (c *baselineAdmitController) purgeLocked(now time.Time) time.Time {
	if now.Before(c.maxNow) {
		now = c.maxNow
	} else {
		c.maxNow = now
	}
	purged := false
	for len(c.expiries) > 0 && !c.expiries[0].at.After(now) {
		e := heap.Pop(&c.expiries).(baselineExpiry)
		delete(c.pending, e.id)
		for _, l := range c.ledgers {
			if _, ok := l.Contribution(task.ID(e.id)); ok {
				l.Remove(task.ID(e.id))
				c.expired++
			}
		}
		purged = true
	}
	if purged {
		c.bumpLocked()
	}
	return now
}

func (c *baselineAdmitController) TryAdmit(r online.Request) bool {
	if r.Deadline <= 0 || len(r.Demands) != c.region.Stages {
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
		return false
	}
	d := r.Deadline.Seconds()

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.purgeLocked(time.Now())

	deltas := make([]float64, len(r.Demands))
	for j, dem := range r.Demands {
		deltas[j] = dem.Seconds() * c.scales[j] / d
	}
	sum := 0.0
	for j, l := range c.ledgers {
		sum += core.StageDelayFactor(l.Utilization() + deltas[j])
	}
	if sum > c.region.Bound() {
		c.rejected++
		return false
	}
	for j, l := range c.ledgers {
		l.Add(task.ID(r.ID), deltas[j])
	}
	at := now.Add(r.Deadline)
	heap.Push(&c.expiries, baselineExpiry{at: at, id: r.ID})
	c.pending[r.ID] = at
	c.admitted++
	return true
}

func (c *baselineAdmitController) Release(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.ledgers {
		l.Remove(task.ID(id))
	}
	c.bumpLocked()
}

// --- shared harness ---

// admitReleaser is the surface both implementations expose to the bench.
type admitReleaser interface {
	TryAdmit(online.Request) bool
	Release(uint64)
}

var benchDemands = []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}

func benchRegion() core.Region { return core.NewRegion(3) }

// admitReleaseSerial is the uncontended cycle: one in-flight request at
// a time, admit then release.
func admitReleaseSerial(b *testing.B, c admitReleaser) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		if !c.TryAdmit(online.Request{ID: id, Deadline: 10 * time.Millisecond, Demands: benchDemands}) {
			b.Fatal("admission unexpectedly rejected")
		}
		c.Release(id)
	}
}

// admitReleaseParallel splits b.N admit+release cycles across g
// goroutines (hand-rolled rather than b.RunParallel so the fan-out is
// exactly g regardless of GOMAXPROCS, giving a comparable 1/4/16 curve
// on any host).
func admitReleaseParallel(b *testing.B, c admitReleaser, g int) {
	var ids atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		n := b.N / g
		if w < b.N%g {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := ids.Add(1)
				if c.TryAdmit(online.Request{ID: id, Deadline: 10 * time.Millisecond, Demands: benchDemands}) {
					c.Release(id)
				}
			}
		}(n)
	}
	wg.Wait()
}

// rejectParallel fills the region once, then hammers it with g
// goroutines whose every attempt is rejected — the overload shape where
// the lock-free read path matters most.
func rejectParallel(b *testing.B, c admitReleaser, g int) {
	// 0.25 utilization per stage (Σ f ≈ 0.87 of the bound 1): the
	// remaining headroom is far smaller than the probe's contribution,
	// so every benchmark attempt rejects.
	if !c.TryAdmit(online.Request{ID: 1 << 62, Deadline: time.Hour, Demands: []time.Duration{
		15 * time.Minute, 15 * time.Minute, 15 * time.Minute}}) {
		b.Fatal("could not pre-fill the region")
	}
	probe := online.Request{ID: 1<<62 + 1, Deadline: 10 * time.Millisecond, Demands: []time.Duration{
		5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}}
	if c.TryAdmit(probe) {
		b.Fatal("probe unexpectedly admitted; region not full enough")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		n := b.N / g
		if w < b.N%g {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			r := probe
			for i := 0; i < n; i++ {
				if c.TryAdmit(r) {
					panic("bench: full region admitted a request")
				}
			}
		}(n)
	}
	wg.Wait()
}

// --- current implementation ---

func BenchmarkAdmitUncontended(b *testing.B) {
	admitReleaseSerial(b, online.New(benchRegion(), nil, nil))
}

func BenchmarkAdmitParallel1(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 1)
}

func BenchmarkAdmitParallel4(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 4)
}

func BenchmarkAdmitParallel16(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 16)
}

func BenchmarkAdmitParallel64(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 64)
}

func BenchmarkAdmitParallel128(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 128)
}

func BenchmarkAdmitParallel256(b *testing.B) {
	admitReleaseParallel(b, online.New(benchRegion(), nil, nil), 256)
}

func BenchmarkAdmitRejectParallel16(b *testing.B) {
	rejectParallel(b, online.New(benchRegion(), nil, nil), 16)
}

// --- sharded controller (K=8) ---

func shardedController() admitReleaser {
	return online.NewWithConfig(benchRegion(), online.Config{Shards: 8})
}

func BenchmarkShardedAdmitUncontended(b *testing.B) {
	admitReleaseSerial(b, shardedController())
}

func BenchmarkShardedAdmitParallel1(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 1)
}

func BenchmarkShardedAdmitParallel4(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 4)
}

func BenchmarkShardedAdmitParallel16(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 16)
}

func BenchmarkShardedAdmitParallel64(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 64)
}

func BenchmarkShardedAdmitParallel128(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 128)
}

func BenchmarkShardedAdmitParallel256(b *testing.B) {
	admitReleaseParallel(b, shardedController(), 256)
}

func BenchmarkShardedAdmitRejectParallel16(b *testing.B) {
	rejectParallel(b, shardedController(), 16)
}

// --- frozen pre-change baseline ---

func BenchmarkBaselineAdmitUncontended(b *testing.B) {
	admitReleaseSerial(b, newBaselineAdmitController(benchRegion()))
}

func BenchmarkBaselineAdmitParallel1(b *testing.B) {
	admitReleaseParallel(b, newBaselineAdmitController(benchRegion()), 1)
}

func BenchmarkBaselineAdmitParallel4(b *testing.B) {
	admitReleaseParallel(b, newBaselineAdmitController(benchRegion()), 4)
}

func BenchmarkBaselineAdmitParallel16(b *testing.B) {
	admitReleaseParallel(b, newBaselineAdmitController(benchRegion()), 16)
}

func BenchmarkBaselineAdmitRejectParallel16(b *testing.B) {
	rejectParallel(b, newBaselineAdmitController(benchRegion()), 16)
}
