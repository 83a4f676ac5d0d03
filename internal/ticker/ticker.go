// Package ticker drives a periodic callback on either clock: Sim puts
// the ticks on a simulator's calendar at fixed simulated instants, Start
// runs them on a background goroutine against the wall clock. The
// governor, the adaptation loop, the autoscaler and the online
// watchdog all tick through it.
package ticker

import (
	"fmt"
	"sync"
	"time"

	"feasregion/internal/des"
)

// Sim schedules fn on sim at interval, 2·interval, … up to and
// including until. The ticks are scheduled up front (a self-rescheduling
// event would keep the calendar non-empty forever), each at the running
// sum of intervals, so their times carry the same rounding on every run.
// It panics if interval is not positive.
func Sim(sim *des.Simulator, interval, until des.Time, fn func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("ticker: interval %v must be positive", interval))
	}
	for t := interval; t <= until; t += interval {
		sim.At(t, fn)
	}
}

// Start calls fn every interval on a background goroutine until the
// returned stop function is called; stop is idempotent and waits for
// the goroutine to exit. It panics if interval is not positive.
func Start(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("ticker: interval %v must be positive", interval))
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
