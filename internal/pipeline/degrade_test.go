package pipeline

import (
	"math"
	"testing"

	"feasregion/internal/degrade"
	"feasregion/internal/des"
	"feasregion/internal/task"
)

// imprecise builds a task with the given importance and optional-demand
// fraction on every stage.
func imprecise(id task.ID, at, deadline, imp, frac float64, demands ...float64) *task.Task {
	t := task.Chain(id, at, deadline, demands...)
	t.Importance = imp
	return t.SetOptionalFraction(frac)
}

func TestDegradedAdmissionFallsDownTheLadder(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableDegradation: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		// Rigid background: u = 0.5 of the 0.586 single-stage capacity.
		if !p.Offer(important(1, 0, 10, 1, 5)) {
			t.Error("background rejected")
		}
		// Imprecise arrival: u = 0.3 full (rejected outright), mandatory
		// 0.03; the remaining headroom 0.086 admits quality level 1.
		if !p.Offer(imprecise(2, 0, 10, 1, 0.9, 3)) {
			t.Error("imprecise arrival rejected though its mandatory part fits")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", m.Degraded)
	}
	if m.Completed != 2 || m.Missed != 0 {
		t.Fatalf("completed/missed = %d/%d, want 2/0", m.Completed, m.Missed)
	}
	// Utility: 1 (rigid) + Utility(1) = 0.5 + 0.5/8 for the degraded task.
	want := 1 + task.MandatoryUtility + (1-task.MandatoryUtility)*1.0/task.QualityLevels
	if math.Abs(m.UtilityDelivered-want) > 1e-9 {
		t.Fatalf("UtilityDelivered = %v, want %v", m.UtilityDelivered, want)
	}
	// The degraded task executed only its level-1 demand, so the stage's
	// busy time stays well under the full 5+3.
	if busy := p.Stage(0).BusyTime(sim.Now()); busy > 6 {
		t.Fatalf("stage busy %v, want the degraded (not full) demand executed", busy)
	}
}

func TestDegradeForTrimsInsteadOfEvicting(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableDegradation: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		// Imprecise low-importance background: u = 0.5, mandatory 0.1.
		if !p.Offer(imprecise(1, 0, 10, 1, 0.8, 5)) {
			t.Error("background rejected")
		}
		// Rigid important arrival needing 0.4: only fits if the
		// background is trimmed toward mandatory-only.
		if !p.Offer(important(2, 0, 10, 9, 4)) {
			t.Error("important arrival rejected though trimming makes room")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Shed != 0 {
		t.Fatalf("shed %d tasks, want 0 (trimming must come first)", m.Shed)
	}
	if m.TrimmedTasks != 1 {
		t.Fatalf("TrimmedTasks = %d, want 1", m.TrimmedTasks)
	}
	if m.Completed != 2 || m.Missed != 0 {
		t.Fatalf("completed/missed = %d/%d, want 2/0", m.Completed, m.Missed)
	}
	// The trimmed background delivers mandatory utility, the rigid
	// arrival full utility.
	want := task.MandatoryUtility + 1
	if math.Abs(m.UtilityDelivered-want) > 1e-9 {
		t.Fatalf("UtilityDelivered = %v, want %v", m.UtilityDelivered, want)
	}
}

func TestGovernorGatesEviction(t *testing.T) {
	// Without a governor, degradation escalates to eviction freely; with
	// one, eviction needs the Shedding state.
	t.Run("no governor evicts", func(t *testing.T) {
		sim := des.New()
		p := New(sim, Options{Stages: 1, EnableDegradation: true})
		sim.At(0, func() { p.BeginMeasurement() })
		sim.At(0, func() {
			p.Offer(important(1, 0, 10, 1, 5)) // rigid: nothing to trim
			if !p.Offer(important(2, 0, 10, 9, 4)) {
				t.Error("important arrival rejected though eviction makes room")
			}
		})
		sim.Run()
		if m := p.Snapshot(); m.Shed != 1 {
			t.Fatalf("shed %d, want 1", m.Shed)
		}
	})
	t.Run("governor in Normal refuses", func(t *testing.T) {
		sim := des.New()
		p := New(sim, Options{Stages: 1, Governor: &degrade.Config{}})
		sim.At(0, func() { p.BeginMeasurement() })
		sim.At(0, func() {
			p.Offer(important(1, 0, 10, 1, 5))
			if p.Offer(important(2, 0, 10, 9, 4)) {
				t.Error("eviction happened while the governor forbids it")
			}
		})
		sim.Run()
		if m := p.Snapshot(); m.Shed != 0 {
			t.Fatalf("shed %d, want 0", m.Shed)
		}
	})
	t.Run("governor in Shedding permits", func(t *testing.T) {
		sim := des.New()
		p := New(sim, Options{Stages: 1, Governor: &degrade.Config{}})
		sim.At(0, func() { p.BeginMeasurement() })
		sim.At(0, func() {
			// Rigid background at u = 0.585: headroom ~0.3%, below the
			// governor's ShedBelow threshold.
			if !p.Offer(important(1, 0, 10, 1, 5.85)) {
				t.Error("background rejected")
			}
		})
		sim.At(0.5, func() {
			p.Governor().Tick()
			if got := p.Governor().State(); got != degrade.Shedding {
				t.Fatalf("state %v after exhausted-headroom tick, want Shedding", got)
			}
		})
		sim.At(0.6, func() {
			if !p.Offer(important(2, 0.6, 10, 9, 0.5)) {
				t.Error("important arrival rejected though Shedding permits eviction")
			}
		})
		sim.Run()
		if m := p.Snapshot(); m.Shed != 1 {
			t.Fatalf("shed %d, want 1", m.Shed)
		}
	})
}

func TestGovernorCapsAdmissionsAndTrimsInFlight(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, Governor: &degrade.Config{
		DegradeBelow: 0.5,
		RestoreAbove: 0.7,
	}})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		// u = 0.4 → Σf ≈ 0.533, headroom ≈ 47% < DegradeBelow.
		if !p.Offer(imprecise(1, 0, 10, 1, 0.5, 4)) {
			t.Error("background rejected")
		}
	})
	sim.At(0.5, func() {
		p.Governor().Tick()
		if got := p.Governor().QualityCap(); got != task.QualityLevels-1 {
			t.Fatalf("quality cap %d after degrade tick, want %d", got, task.QualityLevels-1)
		}
		if got := p.Governor().State(); got != degrade.Degraded {
			t.Fatalf("state %v, want Degraded", got)
		}
	})
	sim.At(0.6, func() {
		// New admissions enter at the cap, not full quality.
		if !p.Offer(imprecise(2, 0.6, 10, 1, 0.5, 2)) {
			t.Error("capped arrival rejected")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.TrimmedTasks < 1 {
		t.Fatalf("TrimmedTasks = %d, want ≥1 (the governor's trimmer fired)", m.TrimmedTasks)
	}
	if m.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1 (the capped admission)", m.Degraded)
	}
	if m.Missed != 0 || m.Completed != 2 {
		t.Fatalf("completed/missed = %d/%d, want 2/0", m.Completed, m.Missed)
	}
	// Both tasks finished at level 7.
	lvl := task.MandatoryUtility + (1-task.MandatoryUtility)*float64(task.QualityLevels-1)/task.QualityLevels
	if math.Abs(m.UtilityDelivered-2*lvl) > 1e-9 {
		t.Fatalf("UtilityDelivered = %v, want %v", m.UtilityDelivered, 2*lvl)
	}
}
