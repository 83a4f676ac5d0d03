package core

import (
	"feasregion/internal/task"
	"feasregion/internal/tasktable"
)

// StageLedger is one stage of a Controller: a view of its task table
// plus the stage's Kahan-compensated sum, reserved floor, peak, and
// idle-reset count. Its arithmetic is Ledger's, so its utilization is
// bit-identical to a Ledger fed the same operations.
type StageLedger struct {
	c        *Controller
	j        int
	reserved float64
	sum      tasktable.Sum
	peak     float64
	resets   uint64
}

// key maps a task ID to a table key. Flipping the sign bit keeps the
// order, so the idle reset drains in Ledger's ascending-ID order.
func key(id task.ID) uint64 { return uint64(id) ^ 1<<63 }

// charge adds a contribution (or a re-charge's difference).
func (l *StageLedger) charge(v float64) {
	l.sum.Add(v)
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
}

func checkReserved(v float64) {
	if v < 0 || v >= 1 {
		panic("core: reserved utilization must be in [0, 1)")
	}
}

func (l *StageLedger) setReserved(v float64) {
	checkReserved(v)
	l.reserved = v
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
}

// Utilization returns the stage's current synthetic utilization.
func (l *StageLedger) Utilization() float64 {
	u := l.reserved + l.sum.Value()
	if u < l.reserved {
		return l.reserved
	}
	return u
}

// Reserved returns the stage's non-resettable floor.
func (l *StageLedger) Reserved() float64 { return l.reserved }

// Peak returns the highest synthetic utilization observed since the last
// ResetPeak.
func (l *StageLedger) Peak() float64 { return l.peak }

// ResetPeak restarts peak tracking at the current utilization, e.g. at
// the start of a measurement window.
func (l *StageLedger) ResetPeak() { l.peak = l.Utilization() }

// Resets returns how many idle resets removed at least one contribution.
func (l *StageLedger) Resets() uint64 { return l.resets }

// ActiveTasks returns how many tasks currently contribute at the stage.
func (l *StageLedger) ActiveTasks() int { return l.c.tab.Charging(l.j) }

// Contribution returns the task's contribution at the stage and whether
// it is still present.
func (l *StageLedger) Contribution(id task.ID) (float64, bool) {
	slot, ok := l.c.tab.Lookup(key(id))
	if !ok || !l.c.tab.Present(slot, l.j) {
		return 0, false
	}
	return l.c.tab.Contrib(slot, l.j), true
}
