package feasregion_test

import (
	"testing"
	"time"

	"feasregion/internal/online"
	"feasregion/internal/task"
)

// Quality-cascade benchmarks: the degraded admit path must cost no more
// allocations than the plain one (zero), and the fallback's extra
// region tests (the O(log QualityLevels) binary search) must stay in
// the same latency class as a full-quality admit. `make bench-degrade`
// emits these as BENCH_degrade.json — the "baseline vs degraded path"
// pair of the perf trajectory.

// degradeBenchOptional marks 90% of each benchmark demand optional.
func degradeBenchOptional(demands []time.Duration) []time.Duration {
	opt := make([]time.Duration, len(demands))
	for j, d := range demands {
		opt[j] = d * 9 / 10
	}
	return opt
}

// BenchmarkDegradeAdmitFull is the cascade's baseline shape: the region
// has room, so step (1) admits at full quality — the degraded machinery
// costs nothing when it is not needed.
func BenchmarkDegradeAdmitFull(b *testing.B) {
	c := online.New(benchRegion(), nil, nil)
	r := online.Request{
		ID:       1,
		Deadline: 10 * time.Millisecond,
		Demands:  benchDemands,
		Optional: degradeBenchOptional(benchDemands),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ID = uint64(i + 1)
		lv, ok := c.TryAdmitQuality(r, task.QualityLevels)
		if !ok || lv != task.QualityLevels {
			b.Fatalf("admit (%d, %v), want full quality", lv, ok)
		}
		c.Release(r.ID)
	}
}

// BenchmarkDegradeAdmitFallback is the degraded path: a pre-filled
// region rejects the probe's full demand, the binary search lands on a
// middle quality level, and the admit commits there. Must stay
// 0 allocs/op.
func BenchmarkDegradeAdmitFallback(b *testing.B) {
	c := online.New(benchRegion(), nil, nil)
	// 0.25 utilization on each of the 3 stages: Σf ≈ 0.875 of bound 1,
	// leaving room for ~0.03 per stage.
	if !c.TryAdmit(online.Request{ID: 1 << 62, Deadline: time.Hour, Demands: []time.Duration{
		15 * time.Minute, 15 * time.Minute, 15 * time.Minute}}) {
		b.Fatal("could not pre-fill the region")
	}
	// Full demand 0.05/stage (rejected), mandatory 0.005 (fits): the
	// cascade settles between the two.
	demands := []time.Duration{500 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond}
	r := online.Request{
		ID:       1,
		Deadline: 10 * time.Millisecond,
		Demands:  demands,
		Optional: degradeBenchOptional(demands),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ID = uint64(i + 1)
		lv, ok := c.TryAdmitQuality(r, task.QualityLevels)
		if !ok || lv == 0 || lv >= task.QualityLevels {
			b.Fatalf("admit (%d, %v), want a degraded middle level", lv, ok)
		}
		c.Release(r.ID)
	}
}

// BenchmarkDegradeAdmitRejectMandatory is the cascade's floor: even
// mandatory-only demand does not fit, so the optimistic mirror read
// rejects without taking the lock.
func BenchmarkDegradeAdmitRejectMandatory(b *testing.B) {
	c := online.New(benchRegion(), nil, nil)
	// The same 0.25/stage fill as the fallback bench: the probe's
	// mandatory part alone (0.05/stage) already overflows the bound.
	if !c.TryAdmit(online.Request{ID: 1 << 62, Deadline: time.Hour, Demands: []time.Duration{
		15 * time.Minute, 15 * time.Minute, 15 * time.Minute}}) {
		b.Fatal("could not pre-fill the region")
	}
	demands := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	r := online.Request{
		ID:       1,
		Deadline: 10 * time.Millisecond,
		Demands:  demands,
		Optional: degradeBenchOptional(demands),
	}
	if lv, ok := c.TryAdmitQuality(r, task.QualityLevels); ok {
		b.Fatalf("probe admitted at %d; region not full enough", lv)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.TryAdmitQuality(r, task.QualityLevels); ok {
			b.Fatal("full region admitted a request")
		}
	}
}
