// Package oracle holds the reference Ledger that the region-state
// differential tests and fuzz targets compare every controller against.
// It is test support, not a runtime path: no controller imports it.
package oracle

import (
	"math"
	"math/big"

	"feasregion/internal/task"
)

// Ledger tracks the synthetic utilization of one stage online:
//
//	U_j(t) = reserved_j + Σ_{current tasks} C_ij / D_i
//
// A task's contribution is added on admission, removed at its absolute
// deadline, and removed early when the stage goes idle if the task has
// already departed the stage (paper §4: idle reset, the tool that keeps
// admission control from being pessimistic). The reserved floor models
// utilization set aside for certified critical tasks (§5) and never
// resets.
//
// The ledger keeps each contribution as given and recomputes the sum
// from scratch whenever it is read, in integers: each contribution is
// rounded up to a whole number of quanta of 2^-40 (capped at 4096, as
// tasktable.State caps it), the quanta are summed exactly, and rounding
// happens only when the sum converts back to float64 and adds the
// floor. No order of operations can move the result.
//
// Ledger is the reference oracle, not a runtime path: every controller
// keeps its contributions in a tasktable.State, and the differential
// tests (TestControllerMatchesLedgers, TestOneShardMatchesLedgers, the
// tasktable fuzz target) require those states to equal a set of Ledgers
// fed the same operations.
type Ledger struct {
	reserved float64
	contrib  map[task.ID]entry
	resets   uint64
	peak     float64
	sum, q   big.Int   // Utilization's scratch
	f        big.Float // Utilization's scratch
}

// entry is one task's recorded contribution and whether it has departed
// the stage (making it eligible for the idle reset).
type entry struct {
	c        float64
	departed bool
}

// maxContrib is tasktable.State's cap, kept here on its own: larger
// contributions are charged as this much.
const maxContrib = 1 << 12

// NewLedger returns a ledger with the given reserved utilization floor.
func NewLedger(reserved float64) *Ledger {
	if reserved < 0 || reserved >= 1 {
		panic("oracle: reserved utilization must be in [0, 1)")
	}
	return &Ledger{
		reserved: reserved,
		contrib:  map[task.ID]entry{},
	}
}

// Utilization returns the stage's current synthetic utilization: the
// floor plus the exact sum of the contributions' quanta, converted to
// the nearest float64.
func (l *Ledger) Utilization() float64 {
	l.sum.SetUint64(0)
	for _, e := range l.contrib {
		q := math.Ceil(min(e.c, maxContrib) * (1 << 40))
		l.sum.Add(&l.sum, l.q.SetUint64(uint64(q)))
	}
	f, _ := l.f.SetInt(&l.sum).Float64()
	return l.reserved + f/(1<<40)
}

// Reserved returns the non-resettable floor.
func (l *Ledger) Reserved() float64 { return l.reserved }

// SetReserved adjusts the floor at runtime — the §5 dynamic
// reconfiguration primitive (mission-mode changes re-apportion the
// capacity set aside for critical tasks). Contributions of already-
// admitted tasks are unaffected; only future admission tests see the new
// floor.
func (l *Ledger) SetReserved(v float64) {
	if v < 0 || v >= 1 {
		panic("oracle: reserved utilization must be in [0, 1)")
	}
	l.reserved = v
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
}

// ActiveTasks returns how many tasks currently contribute.
func (l *Ledger) ActiveTasks() int { return len(l.contrib) }

// Resets returns how many idle resets removed at least one contribution.
func (l *Ledger) Resets() uint64 { return l.resets }

// Add records a task's contribution. Adding a zero contribution still
// registers the task so that MarkDeparted bookkeeping stays uniform.
// Adding an already-present task is a programming error and panics.
func (l *Ledger) Add(id task.ID, contribution float64) {
	if _, ok := l.contrib[id]; ok {
		panic("oracle: task added to ledger twice")
	}
	if !(contribution >= 0) {
		panic("oracle: negative synthetic-utilization contribution")
	}
	l.contrib[id] = entry{c: contribution}
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
}

// Peak returns the highest synthetic utilization observed since the last
// ResetPeak (utilization only rises at Add, so peaks are tracked there).
func (l *Ledger) Peak() float64 { return l.peak }

// ResetPeak restarts peak tracking at the current utilization, e.g. at
// the start of a measurement window.
func (l *Ledger) ResetPeak() { l.peak = l.Utilization() }

// Update replaces a task's recorded contribution in place — the overrun
// guard's re-charge primitive: when a task is observed consuming more
// than it declared, its ledger entry is raised to the observed demand so
// the admission test sees the truth. It reports whether the task was
// present (an expired or reset contribution is not resurrected).
func (l *Ledger) Update(id task.ID, contribution float64) bool {
	if !(contribution >= 0) {
		panic("oracle: negative synthetic-utilization contribution")
	}
	e, ok := l.contrib[id]
	if !ok {
		return false
	}
	e.c = contribution
	l.contrib[id] = e
	if u := l.Utilization(); u > l.peak {
		l.peak = u
	}
	return true
}

// TaskIDs returns the IDs of all currently-contributing tasks, in no
// particular order — the reconciliation pass uses it to scan for leaked
// contributions.
func (l *Ledger) TaskIDs() []task.ID {
	ids := make([]task.ID, 0, len(l.contrib))
	for id := range l.contrib {
		ids = append(ids, id)
	}
	return ids
}

// RangeTasks calls fn for every currently-contributing task until fn
// returns false, without allocating. Iteration order is unspecified. fn
// may Remove the task it was called with (Go map iteration permits
// deleting the current key) but must not add or remove other entries.
func (l *Ledger) RangeTasks(fn func(id task.ID, contribution float64) bool) {
	for id, e := range l.contrib {
		if !fn(id, e.c) {
			return
		}
	}
}

// Contribution returns the task's recorded contribution and whether it
// is still present.
func (l *Ledger) Contribution(id task.ID) (float64, bool) {
	e, ok := l.contrib[id]
	return e.c, ok
}

// Remove drops a task's contribution (called at its absolute deadline)
// and reports whether the task was present. Removing an absent task is
// a no-op: the contribution may already have been cleared by an idle
// reset.
func (l *Ledger) Remove(id task.ID) bool {
	if _, ok := l.contrib[id]; !ok {
		return false
	}
	delete(l.contrib, id)
	return true
}

// MarkDeparted records that the task has finished its service at this
// stage (it can no longer affect this stage's schedule), making its
// contribution eligible for the idle reset.
func (l *Ledger) MarkDeparted(id task.ID) {
	if e, ok := l.contrib[id]; ok {
		e.departed = true
		l.contrib[id] = e
	}
}

// ResetIdle implements the paper's idle reset: when the stage has no
// pending work, tasks that already departed it cannot affect its future
// schedule, so their contributions are removed. It returns the number of
// contributions dropped.
func (l *Ledger) ResetIdle() int {
	n := 0
	for id, e := range l.contrib {
		if e.departed {
			delete(l.contrib, id)
			n++
		}
	}
	if n > 0 {
		l.resets++
	}
	return n
}
