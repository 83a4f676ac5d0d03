package priority

import (
	"fmt"
	"sort"

	"feasregion/internal/core"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// Assignment is the result of an OPA search: a total priority order over
// the candidate set, highest priority first. Order[k] holds priority
// value k (lower = more urgent), so the levels are strict — no two tasks
// share a priority, which is what removes the mutual interference DM
// suffers between equal deadlines.
type Assignment struct {
	// Order lists the candidates highest-priority first.
	Order []Candidate

	levels map[task.ID]int
}

// PriorityOf returns the assigned priority value for the task (its level
// index, lower = more urgent) and whether the task was part of the
// search.
func (a *Assignment) PriorityOf(id task.ID) (float64, bool) {
	lv, ok := a.levels[id]
	return float64(lv), ok
}

// Params exports the assignment as the (priority, deadline) pairs the
// urgency-inversion analysis consumes.
func (a *Assignment) Params() []core.TaskParams {
	params := make([]core.TaskParams, len(a.Order))
	for k, c := range a.Order {
		params[k] = core.TaskParams{Priority: float64(k), Deadline: c.Deadline}
	}
	return params
}

// Alpha returns the urgency-inversion parameter the assignment earns
// under Eq. 15: 1 when the order is DM-compatible, the worst inverted
// deadline ratio otherwise.
func (a *Assignment) Alpha() float64 { return core.Alpha(a.Params()) }

// DMCompatible reports whether the order never places a longer deadline
// above a shorter one — the condition under which the recomputed α is
// exactly 1 and the assignment costs the region nothing.
func (a *Assignment) DMCompatible() bool { return core.DMCompatible(a.Params()) }

// Policy wraps the assignment as a task.Policy for pipeline use: tasks
// in the assignment get their searched level, others fall back (nil
// fallback: deadline-monotonic).
func (a *Assignment) Policy(fallback task.Policy) task.Policy {
	ids := make([]task.ID, len(a.Order))
	prios := make([]float64, len(a.Order))
	for k, c := range a.Order {
		ids[k] = c.ID
		prios[k] = float64(k)
	}
	return NewExplicitOrder(ids, prios, fallback)
}

// InfeasibleError reports an OPA search that ran out of assignable
// tasks: at the listed level no unassigned task passed the test with
// the others above it. For the monotone tests of this package that
// means NO total order passes — the set is unschedulable for the tested
// class, not merely for the orders tried.
type InfeasibleError struct {
	// Level is the priority level (counting 0 = highest) that could not
	// be filled.
	Level int
	// Unassigned lists the tasks still without a priority, in the
	// deterministic order the level tried them.
	Unassigned []task.ID
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("priority: no task schedulable at level %d; unassigned: %v", e.Level, e.Unassigned)
}

// Assign runs the Audsley-style OPA search over the candidate set for an
// N-stage pipeline: levels are filled lowest-first, and at each level
// every still-unassigned task is tried — largest deadline first, ties by
// larger ID, so runs are reproducible and a DM-compatible order is
// recovered whenever one passes the test — against the test with all
// other unassigned tasks as its equal-or-higher interference set. The
// first task that passes takes the level.
//
// For a monotone set-based test this is optimal: if any total order
// makes every task pass, Assign finds such an order (THEORY.md §9). On
// failure it returns an InfeasibleError naming the level and the tasks
// left over; the partial assignment is not exposed because no sound
// admission decision can be built on it.
//
// The search is O(n²) test invocations; with the package's O(n·N)
// tests, O(n³·N) total — an offline/bench cost. Admission-time use goes
// through Admitter, which maintains an order incrementally.
func Assign(cands []Candidate, stages int, test Test) (*Assignment, error) {
	if test == nil {
		test = RegionExact{}
	}
	// Deterministic candidate order: largest deadline first so the
	// lowest level tries the DM victim first; ID breaks exact ties.
	un := append([]Candidate(nil), cands...)
	sort.Slice(un, func(i, j int) bool {
		if un[i].Deadline != un[j].Deadline {
			return un[i].Deadline > un[j].Deadline
		}
		return un[i].ID > un[j].ID
	})

	order := make([]Candidate, len(un))
	scratch := make([]Candidate, 0, len(un))
	for level := len(un) - 1; level >= 0; level-- {
		placed := -1
		for i, c := range un {
			// Everyone else still unassigned sits above c at this level.
			scratch = scratch[:0]
			scratch = append(scratch, un[:i]...)
			scratch = append(scratch, un[i+1:]...)
			if test.Feasible(c, scratch, stages) {
				placed = i
				break
			}
		}
		if placed < 0 {
			ids := make([]task.ID, len(un))
			for i, c := range un {
				ids[i] = c.ID
			}
			return nil, &InfeasibleError{Level: level, Unassigned: ids}
		}
		order[level] = un[placed]
		un = append(un[:placed], un[placed+1:]...)
	}

	levels := make(map[task.ID]int, len(order))
	for k, c := range order {
		levels[c.ID] = k
	}
	return &Assignment{Order: order, levels: levels}, nil
}

// AssignTasks is Assign over *task.Task values, returning the
// assignment with every task's Priority field set to its searched
// level. Tasks are not mutated on failure.
func AssignTasks(tasks []*task.Task, stages int, test Test) (*Assignment, error) {
	a, err := Assign(Candidates(tasks, stages), stages, test)
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		if p, ok := a.PriorityOf(t.ID); ok {
			t.Priority = p
		}
	}
	return a, nil
}

// ExplicitOrder is a task.Policy that replays a precomputed priority
// order (typically an OPA Assignment): listed tasks get their recorded
// priority value, unlisted tasks fall back to the fallback policy
// (deadline-monotonic when nil). It is fixed-priority in the paper's
// sense, so the feasible region applies with the α the order earns
// (core.Alpha over its params).
type ExplicitOrder struct {
	prios    map[task.ID]float64
	fallback task.Policy
}

// NewExplicitOrder builds the policy from parallel id/priority slices
// (panics if their lengths differ).
func NewExplicitOrder(ids []task.ID, prios []float64, fallback task.Policy) *ExplicitOrder {
	if len(ids) != len(prios) {
		panic(fmt.Sprintf("priority: %d ids for %d priorities", len(ids), len(prios)))
	}
	if fallback == nil {
		fallback = task.DeadlineMonotonic{}
	}
	m := make(map[task.ID]float64, len(ids))
	for i, id := range ids {
		m[id] = prios[i]
	}
	return &ExplicitOrder{prios: m, fallback: fallback}
}

// Name implements task.Policy.
func (o *ExplicitOrder) Name() string { return "explicit-order" }

// Assign implements task.Policy.
func (o *ExplicitOrder) Assign(t *task.Task, g *dist.RNG) float64 {
	if p, ok := o.prios[t.ID]; ok {
		return p
	}
	return o.fallback.Assign(t, g)
}

// Fixed implements task.Policy.
func (o *ExplicitOrder) Fixed() bool { return true }
