package feasregion_test

import (
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/online"
	"feasregion/internal/task"
)

// Metrics-overhead benchmarks: the same admit hot path with no registry
// wired (Off) and with one (On). Both controllers export their series
// as read-on-scrape funcs over state they already keep, so registering
// them adds nothing to the admit path: On ≈ Off in ns/op, with
// identical allocs/op, for core as for online. A gap between the two
// means someone moved instrument work back into the hot path.
// `make bench-json` emits these as BENCH_metrics.json.

// coreAdmitLoop drives one TryAdmit+Evict cycle per iteration — the
// full simulation admit path including ledger bookkeeping. With a
// registry wired, the only instrument it touches is the eviction
// counter (evictions are rare outside this loop).
func coreAdmitLoop(b *testing.B, reg *metrics.Registry) {
	sim := des.New()
	c := core.NewController(sim, core.NewRegion(3), nil)
	if reg != nil {
		c.SetMetrics(reg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := task.ID(i)
		if !c.TryAdmit(task.Chain(id, sim.Now(), 1e9, 0.001, 0.001, 0.001)) {
			b.Fatal("admission unexpectedly rejected")
		}
		c.Evict(id)
	}
}

func BenchmarkCoreAdmitMetricsOff(b *testing.B) {
	coreAdmitLoop(b, nil)
}

func BenchmarkCoreAdmitMetricsOn(b *testing.B) {
	coreAdmitLoop(b, metrics.NewRegistry())
}

// onlineAdmitLoop is the wall-clock analogue: TryAdmit+Release on the
// online controller, whose series are read-on-scrape funcs too.
func onlineAdmitLoop(b *testing.B, reg *metrics.Registry) {
	c := online.New(core.NewRegion(3), nil, nil)
	if reg != nil {
		c.RegisterMetrics(reg)
	}
	demands := []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		if !c.TryAdmit(online.Request{ID: id, Deadline: 10 * time.Millisecond, Demands: demands}) {
			b.Fatal("admission unexpectedly rejected")
		}
		c.Release(id)
	}
}

func BenchmarkOnlineAdmitMetricsOff(b *testing.B) {
	onlineAdmitLoop(b, nil)
}

func BenchmarkOnlineAdmitMetricsOn(b *testing.B) {
	onlineAdmitLoop(b, metrics.NewRegistry())
}
