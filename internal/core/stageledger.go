package core

import "feasregion/internal/task"

// StageLedger is one stage of a Controller: a view of its region state
// (the stage's sum and reserved floor) plus the stage's peak and
// idle-reset count. Its utilization equals an oracle.Ledger's fed the
// same operations.
type StageLedger struct {
	c      *Controller
	j      int
	peak   float64
	resets uint64
}

// key maps a task ID to its table key.
func key(id task.ID) uint64 { return uint64(id) }

// notePeak raises the peak to the current utilization after a charge.
func (l *StageLedger) notePeak() {
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
}

// Utilization returns the stage's current synthetic utilization.
func (l *StageLedger) Utilization() float64 { return l.c.st.Util(l.j) }

// Reserved returns the stage's non-resettable floor.
func (l *StageLedger) Reserved() float64 { return l.c.st.Floor(l.j) }

// Peak returns the highest synthetic utilization observed since the last
// ResetPeak.
func (l *StageLedger) Peak() float64 { return l.peak }

// ResetPeak restarts peak tracking at the current utilization, e.g. at
// the start of a measurement window.
func (l *StageLedger) ResetPeak() { l.peak = l.Utilization() }

// Resets returns how many idle resets removed at least one contribution.
func (l *StageLedger) Resets() uint64 { return l.resets }

// ActiveTasks returns how many tasks currently contribute at the stage.
func (l *StageLedger) ActiveTasks() int { return l.c.st.Charging(l.j) }

// Contribution returns the task's contribution at the stage and whether
// it is still present.
func (l *StageLedger) Contribution(id task.ID) (float64, bool) {
	slot, ok := l.c.st.Lookup(key(id))
	if !ok || !l.c.st.Present(slot, l.j) {
		return 0, false
	}
	return l.c.st.Contrib(slot, l.j), true
}
