package online

import (
	"sync"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/shard"
)

// Clock abstracts time.Now for testing.
type Clock func() time.Time

// Request describes one admission request: per-stage computation-time
// estimates and a relative end-to-end deadline. It is an alias of the
// shard package's request type, so requests (and request slices) pass
// through to the data plane without copying.
type Request = shard.Request

// Stats counts admission outcomes, self-healing activity, and sharding
// control traffic; it is the data plane's counter snapshot.
type Stats = shard.Stats

// Controller is a thread-safe wall-clock admission controller enforcing
// the multi-dimensional feasible region. It embeds its data plane, a
// shard.Controller, whose methods (TryAdmit, TryAdmitAll, TryAdmitQuality,
// Release, MarkDeparted, StageIdle, SetStageScale, SetRegionInputs,
// RegionValue, Reconcile, Stats, ...) it exposes as its own, and adds the
// background watchdog and metrics export. The zero value is not usable;
// construct with New.
type Controller struct {
	*shard.Controller
	stages int
}

// Config bundles the optional knobs of NewWithConfig. The zero value
// reproduces New(region, nil, nil).
type Config struct {
	// Reserved, when non-nil, sets per-stage reserved utilization
	// floors (one entry per stage, each in [0, 1)).
	Reserved []float64
	// Clock overrides time.Now (tests, simulation adapters).
	Clock Clock
	// Shards partitions the admission bound across 2^⌈log₂ K⌉
	// cache-line-padded shards (clamped to [1, 64]) so concurrent
	// admits stop serializing on one mutex; 0 or 1 means one shard,
	// where admission is a single exact test under one lock. Every
	// shard count admits exactly the same requests (see internal/shard).
	Shards int
}

// New builds a controller for the given region. reserved, when non-nil,
// sets per-stage reserved utilization floors. clock may be nil
// (time.Now).
func New(region core.Region, reserved []float64, clock Clock) *Controller {
	return NewWithConfig(region, Config{Reserved: reserved, Clock: clock})
}

// NewWithConfig builds a controller with the full option set.
func NewWithConfig(region core.Region, cfg Config) *Controller {
	return &Controller{
		Controller: shard.New(region, cfg.Reserved, shard.Clock(cfg.Clock), max(1, cfg.Shards)),
		stages:     region.Stages,
	}
}

// TryAdmitValue is TryAdmit that, on admission, also returns the region
// value Σ_j f(U_j) right after the commit: the value RegionValue would
// read next. With one shard it is computed inside the admit's own
// critical section, which saves RegionValue's second lock round; with
// more, the admit is followed by a RegionValue call. A cluster replica
// publishes bound − value from it.
func (c *Controller) TryAdmitValue(r Request) (ok bool, value float64) {
	ok = c.Admit(&r, &value)
	return ok, value
}

// StartWatchdog runs Reconcile every interval on a background goroutine
// until the returned stop function is called (stop is idempotent and
// waits for the goroutine to exit).
func (c *Controller) StartWatchdog(interval time.Duration) (stop func()) {
	if interval <= 0 {
		panic("online: watchdog interval must be positive")
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.Reconcile()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
