// Package oracle holds the reference Ledger that the region-state
// differential tests and fuzz targets compare every controller against.
// It is test support, not a runtime path: no controller imports it.
package oracle

import (
	"slices"

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
// The running sum uses Kahan compensation so that millions of
// add/subtract pairs do not drift the admission test.
//
// Ledger is the reference oracle, not a runtime path: every controller
// keeps its contributions in a tasktable.State, and the differential
// tests (TestControllerMatchesLedgers, TestOneShardMatchesLedgers, the
// tasktable fuzz target) require those states to match a set of Ledgers
// fed the same operations bit for bit.
type Ledger struct {
	reserved float64
	sum      float64 // compensated running sum of contributions
	comp     float64 // Kahan compensation term
	contrib  map[task.ID]entry
	// departed lists the IDs flagged by MarkDeparted since the last idle
	// reset, append-only: an entry goes stale (its task expired, or was
	// removed and re-added) without being unlinked, and ResetIdle skips
	// stale and duplicate IDs as it drains. pending counts the flagged
	// entries the list must still deliver.
	departed []task.ID
	pending  int
	resets   uint64
	peak     float64
}

// entry is one task's recorded contribution and whether it has departed
// the stage (making it eligible for the idle reset).
type entry struct {
	c        float64
	departed bool
}

// compactMin is the departed-list length below which compaction is not
// worth a sort.
const compactMin = 64

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

// add accumulates v into the compensated sum.
func (l *Ledger) add(v float64) {
	y := v - l.comp
	t := l.sum + y
	l.comp = (t - l.sum) - y
	l.sum = t
}

// Utilization returns the stage's current synthetic utilization.
func (l *Ledger) Utilization() float64 {
	u := l.reserved + l.sum
	if u < l.reserved {
		return l.reserved
	}
	return u
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
	if contribution < 0 {
		panic("oracle: negative synthetic-utilization contribution")
	}
	l.contrib[id] = entry{c: contribution}
	l.add(contribution)
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
	if contribution < 0 {
		panic("oracle: negative synthetic-utilization contribution")
	}
	e, ok := l.contrib[id]
	if !ok {
		return false
	}
	old := e.c
	e.c = contribution
	l.contrib[id] = e
	l.add(contribution - old)
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
	e, ok := l.contrib[id]
	if !ok {
		return false
	}
	delete(l.contrib, id) // a departed-list entry for id is now stale
	if e.departed {
		l.pending--
	}
	l.add(-e.c)
	if len(l.contrib) == 0 {
		// Exact rebaseline whenever the ledger empties: kills any
		// residual floating error before the next busy period.
		l.sum, l.comp = 0, 0
	}
	return true
}

// MarkDeparted records that the task has finished its service at this
// stage (it can no longer affect this stage's schedule), making its
// contribution eligible for the idle reset.
func (l *Ledger) MarkDeparted(id task.ID) {
	e, ok := l.contrib[id]
	if !ok || e.departed {
		return // contribution already expired or reset, or already marked
	}
	e.departed = true
	l.contrib[id] = e
	l.pending++
	if n := len(l.departed); n >= compactMin && n >= 2*l.pending {
		// Stale entries dominate (a stage that never idles sees its
		// departed tasks expire instead): compact before growing.
		l.departed = l.drain(false)
	}
	l.departed = append(l.departed, id)
}

// ResetIdle implements the paper's idle reset: when the stage has no
// pending work, tasks that already departed it cannot affect its future
// schedule, so their contributions are removed. It returns the number of
// contributions dropped.
func (l *Ledger) ResetIdle() int {
	if l.pending == 0 {
		l.departed = l.departed[:0] // only stale entries remain
		return 0
	}
	n := len(l.drain(true))
	l.departed = l.departed[:0]
	l.pending = 0
	if len(l.contrib) == 0 {
		l.sum, l.comp = 0, 0
	}
	if n > 0 {
		l.resets++
	}
	return n
}

// drain sorts the departed list and compacts it in place to the live
// flagged IDs, each once, in ascending order; with remove set it also
// drops their contributions from the running sum, in that order. The
// compensated sum is order-sensitive at the ULP level, so a fixed
// (sorted) order keeps identically-seeded simulations bit-identical.
func (l *Ledger) drain(remove bool) []task.ID {
	ids := l.departed
	slices.Sort(ids)
	live := ids[:0]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue // duplicate: the task was removed, re-added and re-marked
		}
		e, ok := l.contrib[id]
		if !ok || !e.departed {
			continue // stale: expired, or re-added and not yet departed
		}
		if remove {
			delete(l.contrib, id)
			l.add(-e.c)
		}
		live = append(live, id)
	}
	return live
}
