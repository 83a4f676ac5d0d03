package feasregion_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/online"
)

// Admission hot-path benchmarks over online.Controller:
//
//   - Uncontended: serial admit+release ns/op and allocs/op (must
//     report 0 allocs/op);
//   - Parallel1/4/16/64/128/256: g goroutines splitting b.N over
//     admit+release — the throughput scaling curve;
//   - RejectParallel16: a full region hammered by 16 goroutines, which
//     the controller rejects through its lock-free overload gate.
//
// A before/after comparison against an older commit runs both trees on
// the same host: bash bench/pairs.sh <commit>.
//
// `make bench-admit` emits these as BENCH_admit.json.

// --- shared harness ---

var benchDemands = []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}

func benchRegion() core.Region { return core.NewRegion(3) }

// admitReleaseSerial is the uncontended cycle: one in-flight request at
// a time, admit then release.
func admitReleaseSerial(b *testing.B, c *online.Controller) {
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
func admitReleaseParallel(b *testing.B, c *online.Controller, g int) {
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
func rejectParallel(b *testing.B, c *online.Controller, g int) {
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
