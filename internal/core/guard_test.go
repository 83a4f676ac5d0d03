package core

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/tasktable/oracle"
)

// TestCommitAdmitNonPositiveDeadline checks the wait-queue commit path
// no-ops rather than panics on the same degenerate input.
func TestCommitAdmitNonPositiveDeadline(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	c.commitAdmit(task.Chain(1, 0, 0, 1, 1))
	if c.Ledger(0).ActiveTasks() != 0 {
		t.Error("degenerate task committed a contribution")
	}
}

// TestLedgerUpdate checks the re-charge primitive adjusts the sum and
// peak, and refuses absent tasks.
func TestLedgerUpdate(t *testing.T) {
	l := oracle.NewLedger(0.1)
	l.Add(1, 0.2)
	if !l.Update(1, 0.5) {
		t.Fatal("Update of present task reported absent")
	}
	if got := l.Utilization(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("utilization after update = %v, want 0.6", got)
	}
	if l.Peak() < 0.6 {
		t.Errorf("peak %v did not track the re-charge", l.Peak())
	}
	if l.Update(99, 0.3) {
		t.Error("Update of absent task reported present")
	}
	l.Remove(1)
	if got := l.Utilization(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("utilization after remove = %v, want the 0.1 floor", got)
	}
}

// TestControllerRecharge checks re-charging flows through to the
// admission test: the raised point blocks arrivals that previously fit.
func TestControllerRecharge(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	liar := task.Chain(1, 0, 100, 1) // declares 1% utilization
	if !c.TryAdmit(liar) {
		t.Fatal("liar's declared demand should fit trivially")
	}
	probe := task.Chain(2, 0, 100, 20)
	if !c.WouldAdmit(probe) {
		t.Fatal("probe should fit before the re-charge")
	}
	// Observed demand 60 over deadline 100 → contribution 0.6.
	if !c.Recharge(liar.ID, 0, 0.6) {
		t.Fatal("recharge of present task failed")
	}
	if c.WouldAdmit(probe) {
		t.Error("probe admitted past the re-charged utilization point")
	}
}

// TestGuardPolicies drives HandleOverrun through each policy.
func TestGuardPolicies(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	tk := task.Chain(1, 0, 100, 2)
	if !c.TryAdmit(tk) {
		t.Fatal("setup admission failed")
	}

	logGuard := NewGuard(c, OverrunLog, 0)
	if evict := logGuard.HandleOverrun(tk, 0, 2, 6); evict {
		t.Error("log policy must not evict")
	}
	if s := logGuard.Stats(); s.Detected != 1 || s.ExcessObserved != 4 {
		t.Errorf("log stats = %+v, want 1 detection with excess 4", s)
	}

	re := NewGuard(c, OverrunRecharge, 0)
	if evict := re.HandleOverrun(tk, 0, 2, 6); evict {
		t.Error("recharge policy must not evict")
	}
	if got, _ := c.Ledger(0).Contribution(tk.ID); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("contribution after recharge = %v, want 0.06", got)
	}
	if s := re.Stats(); s.Recharged != 1 {
		t.Errorf("recharge stats = %+v", s)
	}

	ev := NewGuard(c, OverrunEvict, 0)
	if evict := ev.HandleOverrun(tk, 0, 2, 6); !evict {
		t.Error("evict policy must evict")
	}
	if s := ev.Stats(); s.Evictions != 1 {
		t.Errorf("evict stats = %+v", s)
	}
}

// TestGuardBudgetTolerance checks the budget honors the estimator and
// the tolerance slack, and that ignore mode never arms a budget.
func TestGuardBudgetTolerance(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	tk := task.Chain(1, 0, 100, 4, 2)
	g := NewGuard(c, OverrunEvict, 0.5)
	if got := g.Budget(tk, 0); math.Abs(got-6) > 1e-12 {
		t.Errorf("budget stage 0 = %v, want 6 (4 × 1.5)", got)
	}
	if got := g.Budget(tk, 1); math.Abs(got-3) > 1e-12 {
		t.Errorf("budget stage 1 = %v, want 3 (2 × 1.5)", got)
	}
	off := NewGuard(c, OverrunIgnore, 0)
	if got := off.Budget(tk, 0); !math.IsInf(got, 1) {
		t.Errorf("ignore-mode budget = %v, want +Inf", got)
	}
}
