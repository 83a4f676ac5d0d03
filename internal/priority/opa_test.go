package priority

import (
	"testing"

	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// orderFeasible checks the brute-force ground truth: every task in the
// order (highest priority first) passes the test with exactly the tasks
// above it as its interference set.
func orderFeasible(order []Candidate, stages int, ts Test) bool {
	for i, c := range order {
		if !ts.Feasible(c, order[:i], stages) {
			return false
		}
	}
	return true
}

// permutations calls f with every permutation of cands; f returning
// true stops the enumeration early.
func permutations(cands []Candidate, f func([]Candidate) bool) bool {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(cands) {
			return f(cands)
		}
		for i := k; i < len(cands); i++ {
			cands[k], cands[i] = cands[i], cands[k]
			if rec(k + 1) {
				cands[k], cands[i] = cands[i], cands[k]
				return true
			}
			cands[k], cands[i] = cands[i], cands[k]
		}
		return false
	}
	return rec(0)
}

// TestAssignMatchesBruteForce is the optimality property: over random
// small sets, Assign succeeds exactly when SOME total order passes the
// test, and its result is itself a passing order.
func TestAssignMatchesBruteForce(t *testing.T) {
	tests := []Test{RegionExact{}, AlphaPenalized{}, ResponseTime{}}
	g := dist.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		n := 1 + g.Intn(5)
		stages := 1 + g.Intn(3)
		cands := make([]Candidate, n)
		for i := range cands {
			d := make([]float64, stages)
			for j := range d {
				d[j] = 0.05 + 0.5*g.Float64()
			}
			cands[i] = Candidate{ID: task.ID(i + 1), Deadline: 0.5 + 4*g.Float64(), Demands: d}
		}
		for _, ts := range tests {
			work := append([]Candidate(nil), cands...)
			someOrder := permutations(work, func(o []Candidate) bool {
				return orderFeasible(o, stages, ts)
			})
			a, err := Assign(cands, stages, ts)
			if someOrder && err != nil {
				t.Fatalf("trial %d %s: a feasible order exists but Assign failed: %v", trial, ts.Name(), err)
			}
			if !someOrder && err == nil {
				t.Fatalf("trial %d %s: no feasible order exists but Assign returned one", trial, ts.Name())
			}
			if err == nil && !orderFeasible(a.Order, stages, ts) {
				t.Fatalf("trial %d %s: Assign returned an infeasible order", trial, ts.Name())
			}
		}
	}
}

// TestAssignRecoversDMOrder: on a lightly loaded set with distinct
// deadlines the search must return the deadline-monotonic order (the
// tie-break tries the largest deadline first at each level), earning
// α = 1, regardless of input order.
func TestAssignRecoversDMOrder(t *testing.T) {
	cands := []Candidate{
		{ID: 3, Deadline: 1.0, Demands: []float64{0.05, 0.05}},
		{ID: 1, Deadline: 3.0, Demands: []float64{0.05, 0.05}},
		{ID: 2, Deadline: 2.0, Demands: []float64{0.05, 0.05}},
	}
	a, err := Assign(cands, 2, RegionExact{})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	want := []task.ID{3, 2, 1} // ascending deadline = descending priority value order reversed
	for k, id := range want {
		if a.Order[k].ID != id {
			t.Fatalf("level %d: got task %d, want %d (order %+v)", k, a.Order[k].ID, id, a.Order)
		}
	}
	if !a.DMCompatible() || a.Alpha() != 1 {
		t.Fatalf("DM-compatible order should earn α = 1; got DMCompatible=%v α=%v", a.DMCompatible(), a.Alpha())
	}
	if p, ok := a.PriorityOf(3); !ok || p != 0 {
		t.Fatalf("PriorityOf(3) = %v, %v; want 0, true", p, ok)
	}
}

// TestAssignBreaksTiesStrictly: equal deadlines still get strict,
// deterministic levels (larger ID tried first at the lowest level).
func TestAssignBreaksTiesStrictly(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Deadline: 1, Demands: []float64{0.1}},
		{ID: 2, Deadline: 1, Demands: []float64{0.1}},
		{ID: 3, Deadline: 1, Demands: []float64{0.1}},
	}
	a, err := Assign(cands, 1, RegionExact{})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	want := []task.ID{1, 2, 3} // lowest level filled by largest ID first
	for k, id := range want {
		if a.Order[k].ID != id {
			t.Fatalf("level %d: got %d, want %d", k, a.Order[k].ID, id)
		}
	}
	seen := map[float64]bool{}
	for _, c := range a.Order {
		p, _ := a.PriorityOf(c.ID)
		if seen[p] {
			t.Fatalf("priority %v assigned twice", p)
		}
		seen[p] = true
	}
	if !a.DMCompatible() {
		t.Fatal("strict levels over equal deadlines are DM-compatible")
	}
}

// TestResponseTimeRanksBeyondDeadlines is the worked example where the
// additive test makes a deliberate urgency inversion pay: the
// DM-compatible order fails, the inverted order passes, and the search
// finds it.
func TestResponseTimeRanksBeyondDeadlines(t *testing.T) {
	long := Candidate{ID: 1, Deadline: 5.05, Demands: []float64{2.5, 2.5}}
	short := Candidate{ID: 2, Deadline: 4.9, Demands: []float64{0.1, 0}}

	if orderFeasible([]Candidate{short, long}, 2, ResponseTime{}) {
		t.Fatal("the DM order should fail the additive test (R_long = 5.1 > 5.05)")
	}
	a, err := Assign([]Candidate{long, short}, 2, ResponseTime{})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if a.Order[0].ID != 1 || a.Order[1].ID != 2 {
		t.Fatalf("want the inverted order (long above short), got %+v", a.Order)
	}
	if a.DMCompatible() {
		t.Fatal("the winning order inverts deadlines; DMCompatible must be false")
	}
	if al := a.Alpha(); al >= 1 || al < 4.9/5.05-1e-12 {
		t.Fatalf("α = %v, want 4.9/5.05", al)
	}
}

// TestAssignInfeasibleError: an overloaded set reports the level and
// the leftover tasks.
func TestAssignInfeasibleError(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Deadline: 1, Demands: []float64{0.9}},
		{ID: 2, Deadline: 1, Demands: []float64{0.9}},
	}
	_, err := Assign(cands, 1, RegionExact{})
	ie, ok := err.(*InfeasibleError)
	if !ok {
		t.Fatalf("want *InfeasibleError, got %v", err)
	}
	if ie.Level != 1 || len(ie.Unassigned) != 2 {
		t.Fatalf("unexpected error detail: %+v", ie)
	}
	if ie.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestAssignTasksSetsPriorities: the task-slice wrapper writes searched
// levels into Task.Priority.
func TestAssignTasksSetsPriorities(t *testing.T) {
	ts := []*task.Task{
		task.Chain(1, 0, 2.0, 0.1, 0.1),
		task.Chain(2, 0, 1.0, 0.1, 0.1),
	}
	_, err := AssignTasks(ts, 2, nil)
	if err != nil {
		t.Fatalf("AssignTasks: %v", err)
	}
	if ts[1].Priority != 0 || ts[0].Priority != 1 {
		t.Fatalf("priorities not applied: %v, %v", ts[0].Priority, ts[1].Priority)
	}
}

// TestExplicitOrderPolicy: listed tasks replay their recorded level,
// unlisted tasks fall back to deadline-monotonic.
func TestExplicitOrderPolicy(t *testing.T) {
	p := NewExplicitOrder([]task.ID{7, 8}, []float64{0, 1}, nil)
	if p.Name() != "explicit-order" || !p.Fixed() {
		t.Fatalf("unexpected policy identity: %s fixed=%v", p.Name(), p.Fixed())
	}
	g := dist.NewRNG(1)
	in := task.Chain(7, 0, 9, 0.1)
	if got := p.Assign(in, g); got != 0 {
		t.Fatalf("listed task priority = %v, want 0", got)
	}
	out := task.Chain(99, 0, 0.25, 0.1)
	if got := p.Assign(out, g); got != 0.25 {
		t.Fatalf("fallback priority = %v, want the deadline 0.25", got)
	}
}

// TestAssignmentPolicyRoundTrip: Assignment.Policy replays the search.
func TestAssignmentPolicyRoundTrip(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Deadline: 2, Demands: []float64{0.1}},
		{ID: 2, Deadline: 1, Demands: []float64{0.1}},
	}
	a, err := Assign(cands, 1, RegionExact{})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	pol := a.Policy(nil)
	g := dist.NewRNG(1)
	if got := pol.Assign(task.Chain(2, 0, 1, 0.1), g); got != 0 {
		t.Fatalf("task 2 should hold the top level, got %v", got)
	}
	if got := pol.Assign(task.Chain(1, 0, 2, 0.1), g); got != 1 {
		t.Fatalf("task 1 should hold the bottom level, got %v", got)
	}
}

// TestTestsAreMonotone: removing tasks from the interference set never
// flips a passing verdict — the property Audsley's argument needs.
func TestTestsAreMonotone(t *testing.T) {
	g := dist.NewRNG(23)
	tests := []Test{RegionExact{}, AlphaPenalized{}, ResponseTime{}}
	for trial := 0; trial < 300; trial++ {
		stages := 1 + g.Intn(3)
		mk := func(id int) Candidate {
			d := make([]float64, stages)
			for j := range d {
				d[j] = 0.4 * g.Float64()
			}
			return Candidate{ID: task.ID(id), Deadline: 0.5 + 3*g.Float64(), Demands: d}
		}
		c := mk(0)
		n := 1 + g.Intn(4)
		higher := make([]Candidate, n)
		for i := range higher {
			higher[i] = mk(i + 1)
		}
		drop := g.Intn(n)
		smaller := append(append([]Candidate(nil), higher[:drop]...), higher[drop+1:]...)
		for _, ts := range tests {
			if ts.Feasible(c, higher, stages) && !ts.Feasible(c, smaller, stages) {
				t.Fatalf("trial %d: %s is not monotone", trial, ts.Name())
			}
		}
	}
}

// TestBetasTightenEveryTest: blocking terms shrink the budget of all
// three tests.
func TestBetasTightenEveryTest(t *testing.T) {
	c := Candidate{ID: 1, Deadline: 1, Demands: []float64{0.45}}
	if !(RegionExact{}).Feasible(c, nil, 1) {
		t.Fatal("unblocked candidate should pass region-exact")
	}
	if (RegionExact{Betas: []float64{0.5}}).Feasible(c, nil, 1) {
		t.Fatal("β = 0.5 should fail the candidate (f(0.45) ≈ 0.63 > 0.5)")
	}
	if !(ResponseTime{}).Feasible(c, nil, 1) {
		t.Fatal("unblocked candidate should pass response-time")
	}
	if (ResponseTime{Betas: []float64{0.6}}).Feasible(c, nil, 1) {
		t.Fatal("β = 0.6 should fail the additive test (0.45 > 0.4)")
	}
	if (AlphaPenalized{Betas: []float64{0.5}}).Feasible(c, nil, 1) {
		t.Fatal("β = 0.5 should fail alpha-penalized")
	}
}
