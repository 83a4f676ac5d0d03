package task

import (
	"sort"

	"feasregion/internal/dist"
)

// Policy assigns scheduling priorities to tasks. Priorities are numeric
// with lower values more urgent, and — for the fixed-priority policies the
// analysis covers — are fixed across all pipeline stages and independent of
// arrival time.
type Policy interface {
	// Name identifies the policy in experiment logs.
	Name() string
	// Assign returns the task's priority. Policies that randomize draw
	// from g; deterministic policies ignore it.
	Assign(t *Task, g *dist.RNG) float64
	// Fixed reports whether the policy is fixed-priority in the paper's
	// sense (priority not a function of arrival time). EDF is not.
	Fixed() bool
}

// DeadlineMonotonic prioritizes tasks by relative deadline (shorter
// deadline = higher priority). It is the optimal uniprocessor fixed-priority
// policy for aperiodic tasks and has urgency-inversion parameter α = 1.
type DeadlineMonotonic struct{}

// Name implements Policy.
func (DeadlineMonotonic) Name() string { return "deadline-monotonic" }

// Assign implements Policy: priority equals the relative deadline.
func (DeadlineMonotonic) Assign(t *Task, _ *dist.RNG) float64 { return t.Deadline }

// Fixed implements Policy.
func (DeadlineMonotonic) Fixed() bool { return true }

// EDF prioritizes tasks by absolute deadline. It is NOT a fixed-priority
// policy in the paper's sense (priority depends on arrival time), so the
// feasible-region guarantee does not apply; it is provided as a comparison
// scheduler for the simulator.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Assign implements Policy: priority equals the absolute deadline.
func (EDF) Assign(t *Task, _ *dist.RNG) float64 { return t.AbsoluteDeadline() }

// Fixed implements Policy.
func (EDF) Fixed() bool { return false }

// EDFApprox is the fixed-priority approximation of EDF: a task's
// priority is its absolute deadline A_i + D_i, computed once at arrival
// and never re-evaluated. Unlike EDF (whose relative urgency ordering
// shifts as new tasks arrive and which therefore falls outside the
// paper's policy class), the frozen assignment is a legitimate
// fixed-priority policy, so the feasible region applies with the α the
// concurrent population earns — at least Dleast/Dmost, and typically
// much closer to 1 because absolute-deadline order inverts relative
// deadlines only across staggered arrivals (estimate it with core.Alpha
// over a representative arrival sample's assigned priorities).
type EDFApprox struct{}

// Name implements Policy.
func (EDFApprox) Name() string { return "edf-approx" }

// Assign implements Policy: priority is the absolute deadline, frozen.
func (EDFApprox) Assign(t *Task, _ *dist.RNG) float64 { return t.AbsoluteDeadline() }

// Fixed implements Policy.
func (EDFApprox) Fixed() bool { return true }

// Random assigns uniformly random priorities. Its urgency-inversion
// parameter over a task set with deadlines in [Dleast, Dmost] is
// α = Dleast/Dmost (paper §2).
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Assign implements Policy: priority is a uniform random draw.
func (Random) Assign(_ *Task, g *dist.RNG) float64 { return g.Float64() }

// Fixed implements Policy.
func (Random) Fixed() bool { return true }

// SemanticImportance prioritizes tasks by semantic importance (more
// important = higher priority), the naive alternative the TSCE section
// argues against: it is fixed-priority but generally exhibits urgency
// inversion (α < 1).
type SemanticImportance struct{}

// Name implements Policy.
func (SemanticImportance) Name() string { return "semantic-importance" }

// Assign implements Policy: priority is the negated importance.
func (SemanticImportance) Assign(t *Task, _ *dist.RNG) float64 { return -t.Importance }

// Fixed implements Policy.
func (SemanticImportance) Fixed() bool { return true }

// OrderVictims sorts tasks in place into the canonical victim order
// shared by load shedding (§5) and quality degradation: least important
// first, and among equally important tasks the one freeing the most
// synthetic utilization (TotalDemand/Deadline) first, with descending ID
// as the final tie-break so the order is deterministic across runs.
// Eviction and optional-demand trimming both walk this order, so the two
// mechanisms always sacrifice the same tasks first.
func OrderVictims(victims []*Task) {
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.Importance != vb.Importance {
			return va.Importance < vb.Importance
		}
		ca, cb := victimWeight(va), victimWeight(vb)
		if ca != cb {
			return ca > cb
		}
		return va.ID > vb.ID
	})
}

// victimWeight is the total synthetic utilization a task frees when
// evicted, used as the secondary victim-order key.
func victimWeight(t *Task) float64 {
	if t.Deadline <= 0 {
		return 0
	}
	return t.TotalDemand() / t.Deadline
}

// FIFO serves tasks in arrival order. Like EDF it is arrival-time
// dependent and serves only as a simulator baseline.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Assign implements Policy: priority is the arrival time.
func (FIFO) Assign(t *Task, _ *dist.RNG) float64 { return t.Arrival }

// Fixed implements Policy.
func (FIFO) Fixed() bool { return false }
