package ticker

import (
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/des"
)

func TestSim(t *testing.T) {
	sim := des.New()
	var at []des.Time
	Sim(sim, 1, 3.5, func() { at = append(at, sim.Now()) })
	sim.Run()
	if len(at) != 3 || at[0] != 1 || at[1] != 2 || at[2] != 3 {
		t.Fatalf("ticks at %v, want [1 2 3]", at)
	}
}

func TestSimIncludesUntil(t *testing.T) {
	sim := des.New()
	n := 0
	Sim(sim, 5, 15, func() { n++ })
	sim.Run()
	if n != 3 {
		t.Fatalf("%d ticks, want 3 (the tick at until fires)", n)
	}
}

func TestStartStop(t *testing.T) {
	var ticks atomic.Int64
	stop := Start(time.Millisecond, func() { ticks.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if ticks.Load() == 0 {
		t.Fatal("never ticked")
	}
	n := ticks.Load()
	time.Sleep(5 * time.Millisecond)
	if ticks.Load() != n {
		t.Fatal("ticked after stop returned")
	}
}

func TestNonPositiveIntervalPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"sim":  func() { Sim(des.New(), 0, 1, func() {}) },
		"wall": func() { Start(-time.Millisecond, func() {}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("non-positive interval accepted")
				}
			}()
			f()
		})
	}
}
