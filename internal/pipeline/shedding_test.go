package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// important builds a task with the given importance.
func important(id task.ID, at, deadline, imp float64, demands ...float64) *task.Task {
	t := task.Chain(id, at, deadline, demands...)
	t.Importance = imp
	return t
}

func TestSheddingMakesRoomForImportantArrival(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	var gotCritical bool
	sim.At(0, func() {
		// Fill the region with low-importance work: 0.5 contribution.
		if !p.Offer(important(1, 0, 2, 1, 1)) {
			t.Error("background task rejected")
		}
		// A critical arrival (importance 10) needs 0.5 too; without
		// shedding it would be rejected (f(1.0) = Inf).
		gotCritical = p.Offer(important(2, 0, 2, 10, 1))
	})
	sim.Run()
	if !gotCritical {
		t.Fatal("critical task not admitted despite sheddable load")
	}
	m := p.Snapshot()
	if m.Shed != 1 {
		t.Fatalf("shed %d tasks, want 1", m.Shed)
	}
	if m.Completed != 1 {
		t.Fatalf("completed %d, want 1 (the critical task)", m.Completed)
	}
	if m.Missed != 0 {
		t.Fatalf("critical task missed its deadline")
	}
}

func TestSheddingLeastImportantFirst(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		// Two background tasks with importances 1 and 5, ~0.2 each.
		p.Offer(important(1, 0, 10, 1, 2))
		p.Offer(important(2, 0, 10, 5, 2))
		// Critical arrival needing 0.3: shedding ONE task suffices.
		if !p.Offer(important(3, 0, 10, 9, 3)) {
			t.Error("critical not admitted")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Shed != 1 {
		t.Fatalf("shed %d, want exactly 1", m.Shed)
	}
	// Importance-1 task must be the one shed; importance-5 survives.
	if m.Completed != 2 {
		t.Fatalf("completed %d, want 2 (importance 5 and 9)", m.Completed)
	}
}

func TestSheddingRefusesWhenInsufficient(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(important(1, 0, 10, 1, 1)) // 0.1, sheddable
		// Critical arrival that cannot fit even after shedding
		// everything (contribution 0.9 > bound 0.586).
		if p.Offer(important(2, 0, 10, 9, 9)) {
			t.Error("infeasible critical task admitted")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Shed != 0 {
		t.Fatalf("shed %d tasks for an arrival that could never fit, want 0", m.Shed)
	}
	if m.Completed != 1 {
		t.Fatalf("background task should have survived, completed=%d", m.Completed)
	}
}

func TestSheddingIgnoresEquallyImportantWork(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(important(1, 0, 2, 5, 1))
		if p.Offer(important(2, 0, 2, 5, 1)) {
			t.Error("equal-importance arrival must not shed its peer")
		}
	})
	sim.Run()
	if got := p.Snapshot().Shed; got != 0 {
		t.Fatalf("shed %d, want 0", got)
	}
}

func TestSheddingMultipleVictims(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		// Four small background tasks (0.12 each; region value stays
		// under the bound), then a critical one needing 0.45.
		for i := 1; i <= 4; i++ {
			if !p.Offer(important(task.ID(i), 0, 10, 1, 1.2)) {
				t.Errorf("background %d rejected", i)
			}
		}
		if !p.Offer(important(9, 0, 10, 9, 4.5)) {
			t.Error("critical not admitted")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Shed < 2 {
		t.Fatalf("shed %d, want at least 2 victims", m.Shed)
	}
	if m.Shed == 4 {
		t.Fatal("shed everything; plan should stop once the arrival fits")
	}
}

func TestSheddingDisabledByDefault(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 1})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(important(1, 0, 2, 1, 1))
		if p.Offer(important(2, 0, 2, 10, 1)) {
			t.Error("shedding happened without EnableShedding")
		}
	})
	sim.Run()
}

func TestShedVictimStopsExecuting(t *testing.T) {
	sim := des.New()
	p := New(sim, Options{Stages: 2, EnableShedding: true})
	sim.At(0, func() { p.BeginMeasurement() })
	sim.At(0, func() {
		p.Offer(important(1, 0, 4, 1, 1, 1)) // executing on stage 0
	})
	sim.At(0.5, func() {
		// Critical arrival forces shedding task 1 mid-execution.
		if !p.Offer(important(2, 0.5, 3.5, 10, 1, 1)) {
			t.Error("critical not admitted")
		}
	})
	sim.Run()
	m := p.Snapshot()
	if m.Shed != 1 || m.Completed != 1 {
		t.Fatalf("shed/completed = %d/%d, want 1/1", m.Shed, m.Completed)
	}
	// The victim ran 0.5 on stage 0 and never reached stage 1.
	if got := p.Stage(1).Stats().Submitted; got != 1 {
		t.Fatalf("stage 1 received %d jobs, want 1 (victim cancelled upstream)", got)
	}
}
