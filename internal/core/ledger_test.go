package core

import (
	"math"
	"testing"

	"feasregion/internal/dist"
	"feasregion/internal/task"
	"feasregion/internal/tasktable/oracle"
)

func TestLedgerAddRemove(t *testing.T) {
	l := oracle.NewLedger(0)
	l.Add(1, 0.25)
	l.Add(2, 0.25)
	if got := l.Utilization(); got != 0.5 {
		t.Fatalf("utilization %v, want 0.5", got)
	}
	l.Remove(1)
	if got := l.Utilization(); got != 0.25 {
		t.Fatalf("utilization %v, want 0.25", got)
	}
	l.Remove(2)
	if got := l.Utilization(); got != 0 {
		t.Fatalf("utilization %v, want 0", got)
	}
	if l.ActiveTasks() != 0 {
		t.Fatalf("ActiveTasks = %d, want 0", l.ActiveTasks())
	}
}

func TestLedgerReservedFloor(t *testing.T) {
	l := oracle.NewLedger(0.4)
	if got := l.Utilization(); got != 0.4 {
		t.Fatalf("empty ledger utilization %v, want reserved 0.4", got)
	}
	l.Add(1, 0.1)
	if got := l.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %v, want 0.5", got)
	}
	l.MarkDeparted(1)
	l.ResetIdle()
	if got := l.Utilization(); got != 0.4 {
		t.Fatalf("idle reset must return to the reserved floor, got %v", got)
	}
}

func TestLedgerRemoveAbsentIsNoOp(t *testing.T) {
	l := oracle.NewLedger(0)
	l.Remove(99)
	l.Add(1, 0.3)
	l.Remove(1)
	l.Remove(1) // second removal must not go negative
	if got := l.Utilization(); got != 0 {
		t.Fatalf("utilization %v, want 0", got)
	}
}

func TestLedgerDoubleAddPanics(t *testing.T) {
	l := oracle.NewLedger(0)
	l.Add(1, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double add")
		}
	}()
	l.Add(1, 0.1)
}

func TestLedgerIdleResetOnlyDropsDeparted(t *testing.T) {
	l := oracle.NewLedger(0)
	l.Add(1, 0.2) // departed
	l.Add(2, 0.3) // still in the pipeline upstream
	l.MarkDeparted(1)
	if n := l.ResetIdle(); n != 1 {
		t.Fatalf("ResetIdle dropped %d, want 1", n)
	}
	if got := l.Utilization(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("utilization %v, want 0.3", got)
	}
	// Task 1's later deadline decrement must be a no-op.
	l.Remove(1)
	if got := l.Utilization(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("utilization after stale remove %v, want 0.3", got)
	}
}

func TestLedgerMarkDepartedUnknownTask(t *testing.T) {
	l := oracle.NewLedger(0)
	l.MarkDeparted(42) // contribution already expired: must not resurrect
	if n := l.ResetIdle(); n != 0 {
		t.Fatalf("ResetIdle dropped %d, want 0", n)
	}
}

func TestLedgerResetsCounter(t *testing.T) {
	l := oracle.NewLedger(0)
	l.Add(1, 0.1)
	l.MarkDeparted(1)
	l.ResetIdle()
	l.ResetIdle() // nothing to drop: not counted
	if got := l.Resets(); got != 1 {
		t.Fatalf("Resets = %d, want 1", got)
	}
}

func TestLedgerNoDriftUnderChurn(t *testing.T) {
	// A million add/remove pairs must leave utilization exactly zero
	// because the charges are summed exactly.
	l := oracle.NewLedger(0)
	g := dist.NewRNG(3)
	id := task.ID(0)
	for i := 0; i < 1_000_000; i++ {
		c := g.Float64() * 1e-3
		l.Add(id, c)
		if i%2 == 0 {
			l.Remove(id)
		} else {
			l.MarkDeparted(id)
			l.ResetIdle()
		}
		id++
	}
	if got := l.Utilization(); got != 0 {
		t.Fatalf("utilization drifted to %v after churn", got)
	}
}

func TestLedgerPartialChurnDriftBounded(t *testing.T) {
	// Keep a standing population while churning others; the running sum
	// must stay within fly-speck distance of the exact recomputation.
	l := oracle.NewLedger(0.1)
	g := dist.NewRNG(4)
	standing := map[task.ID]float64{}
	for i := 0; i < 50; i++ {
		c := g.Float64() * 0.01
		l.Add(task.ID(i), c)
		standing[task.ID(i)] = c
	}
	id := task.ID(1000)
	for i := 0; i < 200_000; i++ {
		c := g.Float64() * 1e-3
		l.Add(id, c)
		l.Remove(id)
		id++
	}
	exact := 0.1
	for _, c := range standing {
		exact += c
	}
	if got := l.Utilization(); math.Abs(got-exact) > 1e-9 {
		t.Fatalf("utilization %v drifted from exact %v", got, exact)
	}
}

func TestLedgerPeakTracking(t *testing.T) {
	l := oracle.NewLedger(0.1)
	l.Add(1, 0.3)
	l.Add(2, 0.2) // peak 0.6
	l.Remove(1)
	l.Remove(2)
	if got := l.Peak(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Peak = %v, want 0.6", got)
	}
	l.ResetPeak()
	if got := l.Peak(); got != 0.1 {
		t.Fatalf("Peak after reset = %v, want reserved floor 0.1", got)
	}
	l.Add(3, 0.05)
	if got := l.Peak(); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("Peak = %v, want 0.15", got)
	}
}

func TestLedgerInvalidParameters(t *testing.T) {
	for _, reserved := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("oracle.NewLedger(%v) should panic", reserved)
				}
			}()
			oracle.NewLedger(reserved)
		}()
	}
	l := oracle.NewLedger(0)
	defer func() {
		if recover() == nil {
			t.Error("negative contribution should panic")
		}
	}()
	l.Add(1, -0.5)
}

func TestLedgerRangeTasks(t *testing.T) {
	l := oracle.NewLedger(0)
	want := map[task.ID]float64{1: 0.1, 2: 0.2, 3: 0.3}
	for id, c := range want {
		l.Add(id, c)
	}
	seen := map[task.ID]float64{}
	l.RangeTasks(func(id task.ID, c float64) bool {
		if _, dup := seen[id]; dup {
			t.Fatalf("task %d visited twice", id)
		}
		seen[id] = c
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("visited %d tasks, want %d", len(seen), len(want))
	}
	for id, c := range want {
		if seen[id] != c {
			t.Fatalf("task %d contribution %v, want %v", id, seen[id], c)
		}
	}
}

func TestLedgerRangeTasksEarlyStop(t *testing.T) {
	l := oracle.NewLedger(0)
	for id := task.ID(1); id <= 10; id++ {
		l.Add(id, 0.01)
	}
	visits := 0
	l.RangeTasks(func(task.ID, float64) bool {
		visits++
		return visits < 4
	})
	if visits != 4 {
		t.Fatalf("iteration visited %d tasks after stop at 4", visits)
	}
}

func TestLedgerRangeTasksRemoveCurrent(t *testing.T) {
	// The reconciliation pass removes orphans mid-iteration; the iterator
	// must tolerate deleting the entry it was called with.
	l := oracle.NewLedger(0)
	l.Add(1, 0.1)
	l.Add(2, 0.2)
	l.Add(3, 0.3)
	l.RangeTasks(func(id task.ID, _ float64) bool {
		if id != 2 {
			l.Remove(id)
		}
		return true
	})
	if got := l.ActiveTasks(); got != 1 {
		t.Fatalf("ActiveTasks = %d after removal during iteration, want 1", got)
	}
	if got := l.Utilization(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("utilization %v, want 0.2", got)
	}
}
